"""One sha256 per CLI artifact on a fixed seeded set where merging fires.

    python3 tools/output_hashes.py [--src SRC]

The set has 10 identities x 3 tracklets of 48-96 frames (raw_dim 16,
identity separation 0.5, splice rate 0.3, seed 1). Training uses dim 8,
k1 6, k2 2, partition stride 16 and 4 epochs with the merge switch at
epoch 3, so the reachability graph has 2-4 edges in every epoch, its
largest component joins 3 sub-clusters, and both merge modes run. In one
process with one BLAS/OpenMP thread the command runs ``generate``,
``train``, ``cluster`` twice with the trained weights (at epoch 4, past the
switch, for REACHABLE labels, and with ``epochs`` 2 for DIRECT labels),
``eval`` (every tracklet as query and gallery), ``stats`` (on the trained
labels), ``ablate``, ``sweep`` over ``K`` and ``lambda``, and last ``cluster``
with k1 400, above the unit count, so its labels come from the small
cosine matrix in place of the Jaccard metric (at eps 0.05: at 0.25 every
unit falls in one cluster). It then prints one line per artifact: its
sha256 and its name. The generated dataset is one artifact, hashed over
its files' names and bytes. ``--src`` names the ``src`` directory to
import ``subtrack`` from (default: this tree's); running the command once
per tree, e.g. on a checkout of an earlier commit, shows whether a change
keeps every output byte-identical. ``tests/fixtures/output_hashes.txt`` holds
the 12 artifact lines of this tree, and a tier-1 test compares against it; a
change that alters an artifact on purpose re-records it with
``python3 tools/output_hashes.py | tail -n +2 > tests/fixtures/output_hashes.txt``.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SPEC = {
    "num_identities": 10, "tracklets_per_identity": 3, "tracklet_length_range": [48, 96],
    "raw_dim": 16, "identity_separation": 0.5, "splice_rate": 0.3, "seed": 1,
}
CONFIG = {"dim": 8, "k1": 6, "k2": 2, "partition_stride": 16, "epochs": 4,
          "merge_switch_epoch": 3}
DIRECT_CONFIG = {**CONFIG, "epochs": 2}  # `cluster` runs at epoch `epochs`: before the switch
COSINE_CONFIG = {**CONFIG, "k1": 400, "eps": 0.05}  # more than the units: the n <= k1 branch
SWEEPS = {"K": "1,2,4", "lambda": "0.2,0.8"}


def run(work: Path) -> list[tuple[str, list[Path]]]:
    """Run every subcommand in ``work``; each artifact's name and files."""
    from subtrack.cli import main

    def cli(*argv) -> None:
        if main([str(a) for a in argv]) != 0:
            raise SystemExit(f"subtrack {argv[0]} failed")

    data, run_dir = work / "data", work / "run"
    (work / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    (work / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    (work / "direct.json").write_text(json.dumps(DIRECT_CONFIG), encoding="utf-8")
    (work / "cosine.json").write_text(json.dumps(COSINE_CONFIG), encoding="utf-8")
    cli("generate", "--spec", work / "spec.json", "--out", data)
    ids = [e["tracklet_id"] for e in json.loads((data / "manifest.json").read_text())["tracklets"]]
    (work / "split.json").write_text(json.dumps({"query": ids, "gallery": ids}), encoding="utf-8")
    config, weights = ("--config", work / "config.json"), run_dir / "weights.npy"
    cli("train", "--data", data, *config, "--out", run_dir)
    cli("cluster", "--data", data, "--weights", weights, *config, "--out", work / "cluster.json")
    cli("cluster", "--data", data, "--weights", weights, "--config", work / "direct.json",
        "--out", work / "cluster_direct.json")
    cli("eval", "--data", data, "--weights", weights, "--split", work / "split.json",
        "--out", work / "eval.json")
    cli("stats", "--labels", run_dir / "labels.json", "--data", data, "--out", work / "stats.json")
    cli("ablate", "--data", data, *config, "--out", work / "ablate.csv")
    for param, values in SWEEPS.items():
        cli("sweep", "--data", data, *config, "--param", param, "--values", values,
            "--out", work / f"sweep_{param}.csv")
    cli("cluster", "--data", data, "--weights", weights, "--config", work / "cosine.json",
        "--out", work / "cluster_cosine.json")
    artifacts = [("generate: data/", sorted(data.iterdir()))]
    artifacts += [(f"train: {name}", [run_dir / name])
                  for name in ("weights.npy", "reports.jsonl", "labels.json")]
    names = ["cluster.json", "cluster_direct.json", "eval.json", "stats.json", "ablate.csv",
             *(f"sweep_{param}.csv" for param in SWEEPS), "cluster_cosine.json"]
    return artifacts + [(f"{name.split('.')[0]}: {name}", [work / name]) for name in names]


def digest(paths: list[Path]) -> str:
    """sha256 over each file's name and bytes, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory that holds subtrack/")
    args = ap.parse_args()
    os.environ.update(SINGLE_THREAD)  # before numpy is first imported
    sys.path.insert(0, args.src)
    print(f"src: {Path(args.src).resolve()}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, paths in run(Path(tmp)):
            print(f"{digest(paths)}  {name}")


if __name__ == "__main__":
    main()
