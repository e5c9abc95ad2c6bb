"""The benchmark's workloads: seeded inputs, the timed operation and its checks.

Every function that needs the program imports it lazily, so that a worker
process can time ``import subtrack`` as part of its set-up.

Workloads (each takes its seed as an argument):

- ``ref-train``: ``train`` then ``final_metrics`` on the reference comparison
  dataset (120 tracklets, about 377 units) with 15 epochs, which crosses
  ``merge_switch_epoch=11`` so both merge modes run. It is the paper's
  headline run and uses every layer.
- ``cluster-600``: one frozen-encoder ``cluster_epoch`` pass over about 600
  units with seeded weights, the work of ``subtrack cluster``.
  ``k_reciprocal_jaccard`` is over 90% of it, about half of that in the dense
  O(n^3) kernel; there is no training loop, so a training-step change should
  not show here. A pass takes about a second, so that a run holds the forty
  or more passes its tail percentile needs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

TRAIN = "train"
CLUSTER = "cluster"

KINDS = {"ref-train": TRAIN, "cluster-600": CLUSTER}


def spec(name: str, seed: int, tiny: bool = False):
    from subtrack.experiment import reference_comparison_spec
    from subtrack.synth import SyntheticSpec

    if name == "ref-train":
        s = reference_comparison_spec(seed)
        return dataclasses.replace(s, num_identities=12) if tiny else s
    if name == "cluster-600":
        return SyntheticSpec(
            num_identities=12 if tiny else 48,
            num_cameras=6,
            tracklets_per_identity=4,
            tracklet_length_range=(96, 192),
            raw_dim=64,
            identity_separation=0.8,
            camera_shift_scale=0.07,
            splice_rate=0.3,
            splice_len_range=(16, 32),
            jitter_scale=0.08,
            seed=seed,
        )
    raise ValueError(f"unknown workload {name!r}")


def config(name: str, seed: int, tiny: bool = False):
    from subtrack.experiment import reference_comparison_config

    cfg = reference_comparison_config(seed)
    if name == "ref-train":
        return cfg.replace(epochs=3, merge_switch_epoch=2) if tiny else cfg.replace(epochs=15)
    if name == "cluster-600":
        return cfg  # cluster_epoch runs at epoch cfg.epochs, as `subtrack cluster` does
    raise ValueError(f"unknown workload {name!r}")


def generate_inputs(name: str, seed: int, tiny: bool, out_dir: Path) -> None:
    """Write the dataset (and weights) the operation reads; never timed."""
    import numpy as np
    from subtrack import storage
    from subtrack.synth import generate
    from subtrack.trainer import init_encoder

    s = spec(name, seed, tiny)
    storage.write_synthetic(generate(s), out_dir / "data")
    if KINDS[name] == CLUSTER:
        cfg = config(name, seed, tiny)
        enc = init_encoder(s.raw_dim, cfg.dim, np.random.default_rng(seed))
        storage.write_weights(enc.weights, out_dir / "weights.npy")


@dataclasses.dataclass
class Op:
    """One timed operation: a train run plus final_metrics, or a cluster pass."""

    seconds: float
    epoch_seconds: list[float]
    result: object  # subtrack.trainer.TrainResult
    metrics: dict | None  # final_metrics, inside the timed region for train ops


def run_op(name: str, tracklets, weights, cfg) -> Op:
    import time

    from subtrack import experiment, trainer

    t0 = time.perf_counter()
    if KINDS[name] == TRAIN:
        result = trainer.train(tracklets, cfg)
        metrics = experiment.final_metrics(tracklets, result)
        seconds = time.perf_counter() - t0
        return Op(seconds, [r.seconds for r in result.reports], result, metrics)
    enc = trainer.Encoder(weights)
    state, subtracklets, features, _, _ = trainer.cluster_epoch(enc, tracklets, cfg, epoch=cfg.epochs)
    seconds = time.perf_counter() - t0
    result = trainer.TrainResult(encoder=enc, reports=[], labels=state,
                                 subtracklets=subtracklets, features=features)
    return Op(seconds, [seconds], result, None)


def check_op(name: str, op: Op, cfg) -> list[str]:
    """Every violated correctness condition of one operation's outputs."""
    from subtrack.model import OUTLIER

    problems = []
    state, units = op.result.labels, op.result.subtracklets
    problems += [f"LabelState: {p}" for p in state.check()]
    if len(set(units)) != len(units) or set(state.assignment) != set(units):
        problems.append("the label assignment does not cover exactly the units")
    stray = {y for y in state.assignment.values() if y != OUTLIER and y not in state.positive_sets}
    if stray:
        problems.append(f"labels without a positive set: {sorted(stray)[:5]}")
    if KINDS[name] == TRAIN:
        if len(op.result.reports) != cfg.epochs:
            problems.append(f"{len(op.result.reports)} epoch reports for {cfg.epochs} epochs")
        for r in op.result.reports:
            if not (math.isfinite(r.mean_loss) or (math.isnan(r.mean_loss) and r.num_clusters == 0)):
                problems.append(f"epoch {r.epoch}: mean_loss {r.mean_loss} with {r.num_clusters} clusters")
    if op.metrics is not None:
        problems += quality_problems(op.metrics)
    return problems


def quality_problems(metrics: dict) -> list[str]:
    problems = []
    if not 0.0 < metrics["map"] <= 1.0:
        problems.append(f"mAP {metrics['map']} outside (0, 1]")
    if not 0.0 <= metrics["pairwise_f1"] <= 1.0:
        problems.append(f"pairwise F1 {metrics['pairwise_f1']} outside [0, 1]")
    return problems


def fingerprint(op: Op) -> str:
    """Everything a seeded repeat must reproduce exactly; timings excluded."""
    state = op.result.labels
    payload = {
        "labels": sorted([st.parent_id, st.segment_index, list(st.frame_range), y]
                         for st, y in state.assignment.items()),
        "positive_sets": sorted([y, sorted(p)] for y, p in state.positive_sets.items()),
        "mode": state.mode,
        "reports": [[r.epoch, r.num_clusters, r.num_outliers, r.mode, repr(r.mean_loss),
                     r.filtered_frames] for r in op.result.reports],
        "weights": hashlib.sha256(op.result.encoder.weights.tobytes()).hexdigest(),
        "metrics": {k: repr(v) for k, v in sorted((op.metrics or {}).items())},
    }
    return json.dumps(payload)


def input_size(name: str, tracklets, cfg, op: Op, iterations: int) -> dict:
    """The load of one operation, printed next to the metrics."""
    return {
        "tracklets": len(tracklets),
        "frames": int(sum(len(t) for t in tracklets)),
        "units": len(op.result.subtracklets),
        "raw_dim": int(tracklets[0].frames.shape[1]),
        "dim": int(cfg.dim),
        "epochs": int(cfg.epochs) if KINDS[name] == TRAIN else 1,
        "iterations": iterations,
    }
