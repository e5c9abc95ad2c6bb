"""Run-level helpers shared by the CLI and the test harness."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .evaluation import cluster_stats, map_cmc, pairwise_prf
from .model import Tracklet
from .trainer import TrainResult, inference_features


def result_label_arrays(tracklets: Sequence[Tracklet], result: TrainResult):
    """Per-unit (pseudo label, gt identity, camera) from a run's final state."""
    by_id = {t.id: t for t in tracklets}
    parents = [by_id[st.parent_id] for st in result.labels.units]
    return (result.labels.labels, np.asarray([t.identity for t in parents]),
            np.asarray([t.camera for t in parents]))


def final_metrics(tracklets: Sequence[Tracklet], result: TrainResult, k_max: int = 10) -> dict:
    """Retrieval mAP/Rank-1 plus pseudo-label pairwise F1 and cluster counts."""
    feats = inference_features(result.encoder, tracklets)
    meta = [(t.identity, t.camera) for t in tracklets]
    retrieval = map_cmc(feats, meta, feats, meta, k_max=k_max)
    pseudo, gt, cams = result_label_arrays(tracklets, result)
    _, _, f1 = pairwise_prf(pseudo, gt)
    stats = cluster_stats(pseudo, gt, cams)
    return {
        "map": retrieval.map,
        "rank1": float(retrieval.cmc[0]),
        "pairwise_f1": f1,
        "correct_clusters": stats.correct,
        "cross_camera_clusters": stats.cross_camera,
        "incorrect_clusters": stats.incorrect,
    }


def reference_comparison_spec(seed: int):
    """The seeded dataset used for the full-vs-baseline comparison runs."""
    from .synth import SyntheticSpec

    return SyntheticSpec(
        num_identities=40,
        num_cameras=4,
        tracklets_per_identity=3,
        tracklet_length_range=(96, 192),
        raw_dim=48,
        identity_separation=0.8,
        camera_shift_scale=0.07,
        splice_rate=0.3,
        splice_len_range=(16, 32),
        jitter_scale=0.08,
        seed=seed,
    )


def reference_comparison_config(seed: int):
    """Training configuration scaled down to 30 epochs for the comparison."""
    from .model import default_config

    return default_config(
        dim=32,
        epochs=30,
        merge_switch_epoch=11,
        lr_decay_period=10,
        rng_seed=seed,
    )


def compare_full_vs_baseline(seed: int) -> dict:
    """Train both pipelines on one seed and return their metric margins."""
    from .synth import generate
    from .trainer import BASELINE, train

    tracklets, _ = generate(reference_comparison_spec(seed))
    cfg = reference_comparison_config(seed)
    full = final_metrics(tracklets, train(tracklets, cfg))
    base = final_metrics(tracklets, train(tracklets, cfg, BASELINE))
    return {
        "seed": seed,
        "full": full,
        "baseline": base,
        "margin_map": full["map"] - base["map"],
        "margin_f1": full["pairwise_f1"] - base["pairwise_f1"],
        "margin_incorrect": base["incorrect_clusters"] - full["incorrect_clusters"],
    }
