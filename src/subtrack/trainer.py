"""Desk-scale linear encoder and the epoch training loop.

Each epoch: freeze the encoder, filter and partition every tracklet, embed
the sub-tracklets (full surviving-frame mean for clustering), cluster, build
positive sets, initialize the memory banks, then run mini-batch iterations of
loss, optimizer step, and memory updates. The clustering phase always sees a
single frozen weight snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import nftp
from .clustering import sub_cluster_generate
from .memory import MemoryBanks, combined_loss, init_memory, update_hard_memory, update_memory
from .merging import build_graph, merged_state, progressive_positive_sets
from .model import (
    MODE_DIRECT,
    MODE_REACHABLE,
    OUTLIER,
    LabelState,
    SubTracklet,
    Tracklet,
    TrainConfig,
)

MERGE_NONE = "none"
MERGE_DIRECT = "direct"
MERGE_REACHABLE = "reachable"
MERGE_PROGRESSIVE = "progressive"


@dataclass
class Encoder:
    """Linear map plus L2 normalization; the smallest model with a full gradient path."""

    weights: np.ndarray  # (raw_dim, dim)

    @property
    def raw_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def init_encoder(raw_dim: int, dim: int, rng: np.random.Generator) -> Encoder:
    return Encoder(rng.normal(size=(raw_dim, dim)) / np.sqrt(raw_dim))


def encode_frames(enc: Encoder, raw_frames: np.ndarray) -> np.ndarray:
    """Per-frame linear map followed by L2 normalization."""
    raw_frames = np.asarray(raw_frames, dtype=np.float64)
    u = raw_frames @ enc.weights
    norms = np.linalg.norm(u, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("zero vector after the linear map")
    return u / norms


def _embed_with_cache(enc: Encoder, raw_frames: np.ndarray):
    """Forward pass keeping everything the backward pass needs."""
    X = np.asarray(raw_frames, dtype=np.float64)
    U = X @ enc.weights
    u_norms = np.linalg.norm(U, axis=1, keepdims=True)
    if np.any(u_norms == 0.0):
        raise ValueError("zero vector after the linear map")
    G = U / u_norms
    mean = G.mean(axis=0)
    m_norm = np.linalg.norm(mean)
    v = mean / m_norm
    return v, (X, G, u_norms, v, m_norm)


def _backprop_to_weights(grad_v: np.ndarray, cache) -> np.ndarray:
    X, G, u_norms, v, m_norm = cache
    g_mean = (grad_v - (grad_v @ v) * v) / m_norm
    gG = np.broadcast_to(g_mean / X.shape[0], G.shape)
    gU = (gG - (gG * G).sum(axis=1, keepdims=True) * G) / u_norms
    return X.T @ gU


class AdamW:
    """Decoupled weight decay adaptive-moment optimizer."""

    def __init__(self, shape, weight_decay: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def step(self, weights: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        return weights - lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * weights)


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    num_clusters: int
    num_outliers: int
    mode: str
    mean_loss: float
    filtered_frames: int
    seconds: float


@dataclass
class TrainResult:
    encoder: Encoder
    reports: list[EpochReport]
    labels: Optional[LabelState] = None          # final epoch's label state
    subtracklets: list[SubTracklet] = field(default_factory=list)
    features: Optional[np.ndarray] = None        # final clustering-phase embeddings

    def __iter__(self):
        # allows the (encoder, reports) unpacking used by callers of train()
        return iter((self.encoder, self.reports))


@dataclass(frozen=True)
class PipelineToggles:
    """One row of the ablation matrix."""

    name: str = "full"
    filter_frames: bool = True
    do_partition: bool = True
    merge: str = MERGE_PROGRESSIVE
    loss: str = "csc"


def _positive_state(
    assignment: dict[SubTracklet, int],
    merge: str,
    epoch: int,
    cfg: TrainConfig,
) -> LabelState:
    if merge == MERGE_NONE:
        labels = sorted({y for y in assignment.values() if y != OUTLIER})
        return LabelState(
            assignment=assignment,
            positive_sets={y: frozenset([y]) for y in labels},
            mode=MODE_DIRECT,
        )
    g = build_graph(assignment)
    if merge == MERGE_PROGRESSIVE:
        return progressive_positive_sets(assignment, g, epoch, cfg)
    if merge == MERGE_DIRECT:
        return merged_state(assignment, g, MODE_DIRECT)
    if merge == MERGE_REACHABLE:
        return merged_state(assignment, g, MODE_REACHABLE)
    raise ValueError(f"unknown merge mode {merge!r}")


def cluster_epoch(
    enc: Encoder,
    tracklets: Sequence[Tracklet],
    cfg: TrainConfig,
    epoch: int,
    toggles: PipelineToggles = PipelineToggles(),
):
    """The frozen-encoder phase of one epoch: NFTP, embed, cluster, merge.

    Returns (state, subtracklets, features, surviving raw frames per unit,
    filtered-frame count).
    """
    encoded = [(t.id, encode_frames(enc, t.frames)) for t in tracklets]
    raw_by_id = {t.id: t.frames for t in tracklets}
    parts = nftp.nftp_all(encoded, cfg, filter_frames=toggles.filter_frames)
    if not toggles.do_partition:
        parts = [
            (ft, [SubTracklet(ft.parent_id, 1, (0, len(ft.surviving_indices) - 1))])
            for ft, _ in parts
        ]
    filtered_frames = sum(len(ft.filtered_indices) for ft, _ in parts)

    subtracklets: list[SubTracklet] = []
    features = []
    raw_units: dict[SubTracklet, np.ndarray] = {}
    feats_by_id = dict(encoded)
    for ft, sts in parts:
        surv = np.asarray(ft.surviving_indices, dtype=np.int64)
        enc_frames = feats_by_id[ft.parent_id][surv]
        raw_frames = raw_by_id[ft.parent_id][surv]
        for st in sts:
            a, b = st.frame_range
            mean = enc_frames[a : b + 1].mean(axis=0)
            features.append(mean / np.linalg.norm(mean))
            subtracklets.append(st)
            raw_units[st] = raw_frames[a : b + 1]
    features = np.asarray(features)
    state0 = sub_cluster_generate(features, cfg, keys=subtracklets)
    state = _positive_state(dict(state0.assignment), toggles.merge, epoch, cfg)
    return state, subtracklets, features, raw_units, filtered_frames


def _fixed_k_positive_sets(state: LabelState, banks: MemoryBanks, k: int) -> LabelState:
    """Replace positives with each class's k nearest bank centroids (self included)."""
    n = banks.num_classes
    k = min(k, n)
    sims = banks.centroid @ banks.centroid.T
    psets = {y: {y} for y in range(1, n + 1)}
    for y in range(1, n + 1):
        order = np.argsort(-sims[y - 1], kind="stable")
        for j in order[:k]:
            psets[y].add(int(j) + 1)
            psets[int(j) + 1].add(y)  # keep the DIRECT-mode symmetry invariant
    return LabelState(
        assignment=state.assignment,
        positive_sets={y: frozenset(s) for y, s in psets.items()},
        mode=MODE_DIRECT,
    )


def train_with_toggles(
    tracklets: Sequence[Tracklet],
    cfg: TrainConfig,
    toggles: PipelineToggles,
    fixed_k: Optional[int] = None,
) -> TrainResult:
    if toggles.loss == "csc" and toggles.merge == MERGE_NONE and fixed_k is None:
        raise ValueError("the class-smoothing loss needs a merging mode (or fixed_k)")
    if not tracklets:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(cfg.rng_seed)
    raw_dim = tracklets[0].frames.shape[1]
    enc = init_encoder(raw_dim, cfg.dim, rng)
    opt = AdamW(enc.weights.shape, cfg.weight_decay)
    result = TrainResult(encoder=enc, reports=[])

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        state, subtracklets, features, raw_units, filtered = cluster_epoch(
            enc, tracklets, cfg, epoch, toggles
        )
        labeled = state.labeled_items()
        result.labels, result.subtracklets, result.features = state, subtracklets, features

        if not labeled:
            result.reports.append(
                EpochReport(epoch, 0, state.num_outliers, state.mode, float("nan"), filtered,
                            time.perf_counter() - t0)
            )
            continue

        labels_arr = np.fromiter((y for _, y in labeled), dtype=np.int64, count=len(labeled))
        idx_map = [st for st, _ in labeled]
        feat_map = {st: f for st, f in zip(subtracklets, features)}
        banks = init_memory(
            np.asarray([feat_map[st] for st in idx_map]), labels_arr, cfg.temperature, cfg.momentum
        )
        if fixed_k is not None:
            state = _fixed_k_positive_sets(state, banks, fixed_k)
            result.labels = state

        iters = cfg.iters_per_epoch or -(-len(labeled) // cfg.batch_size)
        lr = cfg.lr_at(epoch)
        losses = []
        for _ in range(iters):
            pick = rng.integers(0, len(labeled), size=cfg.batch_size)
            grad_w = np.zeros_like(enc.weights)
            batch = []
            for i in pick:
                st, y = labeled[i]
                raw = raw_units[st]
                sample = nftp.sample_frames(
                    raw.shape[0], cfg.frames_per_sample, cfg.sample_stride, rng
                )
                v, cache = _embed_with_cache(enc, raw[sample])
                out = combined_loss(v, y, state.positive_sets[y], banks, cfg, kind=toggles.loss)
                grad_w += _backprop_to_weights(out.grad, cache) / cfg.batch_size
                losses.append(out.value)
                batch.append((v, y))
            enc.weights = opt.step(enc.weights, grad_w, lr)
            banks = update_memory(banks, batch)
            banks = update_hard_memory(banks, batch)

        result.reports.append(
            EpochReport(epoch, state.num_clusters, state.num_outliers, state.mode,
                        float(np.mean(losses)), filtered, time.perf_counter() - t0)
        )
    return result


def train(tracklets: Sequence[Tracklet], cfg: TrainConfig) -> TrainResult:
    """Full pipeline: noise filter, partition, progressive merging, CSC loss."""
    return train_with_toggles(tracklets, cfg, PipelineToggles())


def train_baseline(tracklets: Sequence[Tracklet], cfg: TrainConfig) -> TrainResult:
    """Whole-tracklet units, no filtering or merging, plain contrastive loss."""
    return train_with_toggles(
        tracklets,
        cfg,
        PipelineToggles(name="baseline", filter_frames=False, do_partition=False,
                        merge=MERGE_NONE, loss="infonce"),
    )


def ablation_matrix(
    tracklets: Sequence[Tracklet],
    cfg: TrainConfig,
    toggle_rows: Sequence[PipelineToggles],
) -> dict[str, TrainResult]:
    """Run every toggle row with the shared seed from cfg."""
    return {row.name: train_with_toggles(tracklets, cfg, row) for row in toggle_rows}


def standard_ablation_rows() -> list[PipelineToggles]:
    """The seven structural rows of the component ablation."""
    return [
        PipelineToggles("baseline", False, False, MERGE_NONE, "infonce"),
        PipelineToggles("nftp_infonce", True, True, MERGE_NONE, "infonce"),
        PipelineToggles("nftp_reachable_infonce", True, True, MERGE_REACHABLE, "infonce"),
        PipelineToggles("nftp_direct_infonce", True, True, MERGE_DIRECT, "infonce"),
        PipelineToggles("nftp_reachable_csc", True, True, MERGE_REACHABLE, "csc"),
        PipelineToggles("nftp_direct_csc", True, True, MERGE_DIRECT, "csc"),
        PipelineToggles("full", True, True, MERGE_PROGRESSIVE, "csc"),
    ]


def inference_features(enc: Encoder, tracklets: Sequence[Tracklet]) -> np.ndarray:
    """Whole-tracklet features for retrieval: normalized mean over all frames."""
    feats = []
    for t in tracklets:
        mean = encode_frames(enc, t.frames).mean(axis=0)
        feats.append(mean / np.linalg.norm(mean))
    return np.asarray(feats)
