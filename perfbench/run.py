"""Pipeline benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload ref-train --seed 1 --seconds 50 --trace 0

Workloads: ref-train, cluster-600 (see ``workloads.py``).

Run from the root of a source tree holding ``src/subtrack``. The inputs are
generated from the seed and written to disk outside any timing; every
workload process then starts fresh with one BLAS/OpenMP thread on the numpy
kernel path, pinned to the core the command started on, and receives only
those files.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a run that alternates untraced and traced operations (see ``spans.py``).
Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Any failed operation
or correctness check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ref-train", "cluster-600")
# Fresh processes that only set up, half before the workload process and half
# after it; the workload process starts more between its operations.
SETUP_PROBES = 10
DEADLINE_S = 170.0  # the whole invocation ends within 180 s
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SUBTRACK_PURE_NUMPY": "1",
}

# name -> unit, in the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",  # time to import subtrack and read the inputs: tail over fresh processes
    "epoch_s_tail": "s",  # highest percentile of epoch time with ten samples beyond it
    "peak_rss_mb": "MB",  # peak resident memory of the workload process
}
# Printed with their units but not in the JSON: on a shared host the share of
# time a core runs at full speed changes from minute to minute, and the medians
# follow it by more than any bound; a tail sits at the contended speed, which
# every run reaches, so both timings in the JSON are tails.
PRINTED_ONLY = {"run_s": "s", "epoch_s_p50": "s"}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest order statistic with ten samples above it, and its percentile.

    With fewer than eleven samples no such statistic exists and the maximum
    (percentile 100) is returned.
    """
    xs = sorted(samples)
    if len(xs) < 11:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def _pin_to_one_core() -> None:
    """Keep this process and every process it starts on the core it runs on now."""
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    os.sched_setaffinity(0, {cpu})


def _child(args: list[str], deadline: float) -> str:
    """Run one worker to its end and return its standard output.

    The worker leads a process group of its own, so that on timeout the probes
    it may have started are killed with it.
    """
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return out


def _probe(workload: str, work: Path, deadline: float) -> float:
    out = _child(["probe", workload, str(work)], deadline)
    return json.loads(out.splitlines()[-1])["setup_s"]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end(res: dict, setup_s: list[float]) -> tuple[dict, list[str]]:
    done = [op for op in res["ops"] if "seconds" in op]
    epochs = [s for op in done for s in op["epoch_seconds"]]
    tail_s, pct = tail(epochs)
    setup_tail_s, setup_pct = tail(setup_s)
    values = {
        "setup_s": setup_tail_s,
        "run_s": statistics.median(op["seconds"] for op in done),
        "epoch_s_p50": statistics.median(epochs),
        "epoch_s_tail": tail_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"p{setup_pct:.1f} of {len(setup_s)} fresh processes spread over the run",
        "run_s": f"median of {len(done)} operations; printed only",
        "epoch_s_p50": f"median of {len(epochs)} epochs; printed only",
        "epoch_s_tail": f"p{pct:.1f} of {len(epochs)} epochs, {10 if pct < 100 else 0} beyond it",
    }
    lines = [f"metric {name} = {_fmt(values[name])} {unit}  ({notes.get(name, 'workload process')})"
             for name, unit in {**END_TO_END, **PRINTED_ONLY}.items()]
    # Printed only, not in the JSON: quality is set by the seed's data, so it
    # spreads across seeds by more than any bound, and these two can be 0.
    q = res["quality"]
    failed = sum(1 for op in res["ops"] if op["problems"])
    lines += [
        f"metric map = {_fmt(q['map'])} 1  (final_metrics; printed only)",
        f"metric pairwise_f1 = {_fmt(q['pairwise_f1'])} 1  (final_metrics; printed only)",
        f"metric incorrect_clusters = {q['incorrect_clusters']} count  (cluster_stats; printed only)",
        f"metric error_rate = {_fmt(failed / len(res['ops']))} ratio  "
        f"({failed} failed of {len(res['ops'])} operations; printed only)",
    ]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, lines


def per_layer(res: dict) -> tuple[dict, list[str]]:
    values = dict(res["trace"])
    for name in ("storage.read_dataset.s", "storage.read_dataset.bytes", "storage.read_weights.s"):
        values[name] = res["setup"][name]
    lines = [f"layer {name} = {_fmt(values[name])} {spans.unit(name)}" for name in spans.PER_LAYER]
    if res["absent"]:
        lines.append("absent (reported as 0): " + ", ".join(res["absent"]))
    return {name: {"value": values[name], "unit": spans.unit(name)} for name in spans.PER_LAYER}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # ends the workers too

    if not (ROOT / "src" / "subtrack" / "__init__.py").is_file():
        print(f"perfbench: no subtrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _pin_to_one_core()
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tiny = "1" if args.tiny else "0"
    try:
        work.mkdir(parents=True)
        _child(["gen", args.workload, str(args.seed), tiny, str(work)], deadline)
        probes = 0 if args.trace else SETUP_PROBES
        setup_s = [_probe(args.workload, work, deadline) for _ in range(probes // 2)]
        _child(["run", args.workload, str(args.seed), str(args.seconds), str(args.trace), tiny,
                str(work)], deadline)
        res = json.loads((work / "result.json").read_text())
        setup_s += res["setup_probes"]
        setup_s += [_probe(args.workload, work, deadline) for _ in range(probes - probes // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = [op for op in res["ops"] if op["problems"]]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={_fmt(args.seconds)} "
          f"trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in res["env"].items()))
    if res["input"] is not None:
        print("input: " + " ".join(f"{k}={v}" for k, v in res["input"].items()))
    done = [op for op in res["ops"] if "seconds" in op]
    print("operations: " + " ".join(
        f"{'traced' if op['traced'] else 'untraced'}={_fmt(op['seconds'])}s" for op in done))
    for i, op in enumerate(res["ops"], start=1):
        if op["problems"]:
            print(f"operation {i} failed: " + " | ".join(op["problems"]).replace("\n", " "))
    if res["quality"] is None or (args.trace and "trace" not in res):
        print(json.dumps({"correct": False, "attempted": len(res["ops"]), "failed": len(failed),
                          "metrics": {}}))
        return 1
    if args.trace:
        metrics, lines = per_layer(res)
    else:
        metrics, lines = end_to_end(res, setup_s)
    print("\n".join(lines))
    if not args.trace:
        print("setup probes (s): " + " ".join(_fmt(x) for x in sorted(setup_s)))
    print(json.dumps({"correct": not failed, "attempted": len(res["ops"]), "failed": len(failed),
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
