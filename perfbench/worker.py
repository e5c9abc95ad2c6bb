"""One benchmark process: generate inputs, time set-up, or run a workload.

Started by ``run.py`` in a fresh single-threaded process, never imported by
it. Usage:

    worker.py gen   WORKLOAD SEED TINY DIR    write the inputs under DIR
    worker.py probe WORKLOAD DIR              print the set-up time as JSON
    worker.py run   WORKLOAD SEED SECONDS TRACE TINY DIR
                                              run operations for SECONDS, write
                                              DIR/result.json; untraced, start
                                              probes between the operations

Nothing here imports numpy or subtrack at module level, so that set-up
timing starts before either is imported.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

# Set-up probes between untraced operations, a batch at most every interval.
# The host's single-thread speed changes within seconds, so the probes are
# spread over the whole run.
PROBE_BATCH = 5
PROBE_INTERVAL_S = 5.0


def setup(name: str, work: Path):
    """Import the program and read the inputs; the span ``setup_s`` measures."""
    t0 = time.perf_counter()
    import subtrack  # noqa: F401
    from subtrack import experiment, storage, trainer  # noqa: F401

    t1 = time.perf_counter()
    tracklets, _ = storage.read_dataset(work / "data")
    t2 = time.perf_counter()
    weights = None
    if workloads.KINDS[name] == workloads.CLUSTER:
        weights = storage.read_weights(work / "weights.npy")
    t3 = time.perf_counter()
    return tracklets, weights, {
        "setup_s": t3 - t0,
        "storage.read_dataset.s": t2 - t1,
        "storage.read_dataset.bytes": sum(p.stat().st_size for p in (work / "data").iterdir()),
        "storage.read_weights.s": t3 - t2,
    }


def probe(name: str, work: Path) -> float:
    """The set-up time of one fresh process that does nothing else."""
    out = subprocess.run([sys.executable, __file__, "probe", name, str(work)],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])["setup_s"]


def _blas_threads() -> int:
    """OpenBLAS's thread count, or -1 when no OpenBLAS library is loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def environment() -> dict:
    import numpy as np
    from subtrack import kernels

    return {
        "use_numba": bool(kernels.USE_NUMBA),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "pinned_cpus": ",".join(map(str, sorted(os.sched_getaffinity(0)))),
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool, work: Path) -> dict:
    tracklets, weights, setup_metrics = setup(name, work)
    cfg = workloads.config(name, seed, tiny)
    tracer = spans.Tracer() if trace else None
    probes = [setup_metrics["setup_s"]]
    last_batch = time.perf_counter()

    def between_ops():
        nonlocal last_batch
        if tracer is None and time.perf_counter() - last_batch >= PROBE_INTERVAL_S:
            probes.extend(probe(name, work) for _ in range(PROBE_BATCH))
            last_batch = time.perf_counter()

    ops, quality, size, traced_s, untraced_s = _operations(
        name, tracklets, weights, cfg, seconds, tracer, between_ops)
    out = {
        "setup": setup_metrics,
        "setup_probes": probes,
        "ops": ops,
        "quality": quality,
        "input": size,
        "env": environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None and traced_s and untraced_s:
        out["trace"] = tracer.metrics(traced_s, untraced_s)
        out["absent"] = tracer.absent
    return out


def _operations(name, tracklets, weights, cfg, seconds, tracer, between_ops):
    from subtrack import experiment

    ops, first, quality, size = [], None, None, None
    traced_s, untraced_s, spent = [], [], []
    start = time.perf_counter()
    # At least two seeded repeats (with tracing: one untraced, one traced),
    # then more while one more, as long as the longer of the last two, still
    # ends within the time.
    while len(ops) < 2 or time.perf_counter() - start + max(spent[-2:]) <= seconds:
        traced = tracer is not None and len(ops) % 2 == 1
        record = {"traced": traced, "problems": []}
        ops.append(record)
        t0 = time.perf_counter()
        try:
            with spans.CallCounter("trainer", "update_memory") as iterations:
                if traced:
                    tracer.install()
                try:
                    op = workloads.run_op(name, tracklets, weights, cfg)
                finally:
                    if traced:
                        tracer.uninstall()
        except Exception:  # a failed operation is counted and the run goes on
            record["problems"].append(traceback.format_exc(limit=3))
            continue
        finally:
            spent.append(time.perf_counter() - t0)
            between_ops()
        record["seconds"], record["epoch_seconds"] = op.seconds, op.epoch_seconds
        (traced_s if traced else untraced_s).append(op.seconds)
        record["problems"] += workloads.check_op(name, op, cfg)
        if first is None:
            first = workloads.fingerprint(op)
            if op.metrics is None:  # cluster pass: score its labels outside the timing
                op.metrics = experiment.final_metrics(tracklets, op.result)
                record["problems"] += workloads.quality_problems(op.metrics)
            quality = op.metrics
            size = workloads.input_size(name, tracklets, cfg, op, iterations.calls)
        elif workloads.fingerprint(op) != first:
            record["problems"].append("a seeded repeat gave different labels or reports")
    return ops, quality, size, traced_s, untraced_s


def main(argv: list[str]) -> int:
    mode, name = argv[0], argv[1]
    if mode == "gen":
        seed, tiny, work = int(argv[2]), argv[3] == "1", Path(argv[4])
        workloads.generate_inputs(name, seed, tiny, work)
    elif mode == "probe":
        _, _, metrics = setup(name, Path(argv[2]))
        print(json.dumps({"setup_s": metrics["setup_s"]}))
    elif mode == "run":
        seed, seconds, trace, tiny = int(argv[2]), float(argv[3]), argv[4] == "1", argv[5] == "1"
        work = Path(argv[6])
        result = run(name, seed, seconds, trace, tiny, work)
        (work / "result.json").write_text(json.dumps(result))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
