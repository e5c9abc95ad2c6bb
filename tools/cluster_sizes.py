"""The clustering stage at fixed sizes: seconds, peak RSS and a label hash.

    python3 tools/cluster_sizes.py [--src SRC]

Each size (600, 1000, 2000, 5000 and 20,000 units) runs in its own fresh
process with one BLAS/OpenMP thread. The process draws seeded synthetic unit
features (32 dims, about eight units per identity), then times
``sub_cluster_generate(features, default_config())`` (k1=30, k2=6, the
default eps and min_samples), the pipeline's own call, and prints one line:
the unit count, the seconds, the process's peak RSS in MB, the cluster count
and the sha256 of the labels. ``--src`` names the ``src`` directory to
import ``subtrack`` from (default: this tree's); running the command once
per tree, e.g. on a checkout of an earlier commit, compares the labels size
by size. ``tests/fixtures/cluster_sizes.txt`` holds the label hashes of the
600- and 1000-unit runs, and a tier-1 test reruns ``--one`` at both sizes,
with one BLAS/OpenMP thread, and compares against it.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DIM = 32
SIZES, SEED = (600, 1000, 2000, 5000, 20000), 0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def features(n: int) -> np.ndarray:
    """Seeded unit-norm features, about eight units around each identity's center."""
    rng = np.random.default_rng([SEED, n])
    centers = rng.normal(size=(max(1, n // 8), DIM))
    f = centers[rng.integers(0, centers.shape[0], n)] + 0.35 * rng.normal(size=(n, DIM))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


def one_size(n: int) -> dict:
    """Run in a fresh process: the clustering stage on n units."""
    from subtrack.clustering import sub_cluster_generate
    from subtrack.model import default_config

    f = features(n)
    t0 = time.perf_counter()
    labels = sub_cluster_generate(f, default_config())
    seconds = time.perf_counter() - t0
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    return {
        "units": n,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "clusters": int(labels.max(initial=0)),
        "labels_sha256": hashlib.sha256(labels.tobytes()).hexdigest(),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory that holds subtrack/")
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)  # child mode: one size
    args = ap.parse_args()
    if args.one is not None:
        sys.path.insert(0, args.src)
        print(json.dumps(one_size(args.one)))
        return
    env = {**os.environ, **SINGLE_THREAD}
    print(f"src: {Path(args.src).resolve()}  seed: {SEED}  dim={DIM}  config: default_config()")
    for n in SIZES:
        out = subprocess.run(
            [sys.executable, __file__, "--one", str(n), "--src", args.src],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        row = json.loads(out.splitlines()[-1])
        print(f"{row['units']:>6} units  {row['seconds']:8.3f} s  {row['peak_rss_mb']:8.1f} MB"
              f"  {row['clusters']:>5} clusters  labels {row['labels_sha256']}", flush=True)


if __name__ == "__main__":
    main()
