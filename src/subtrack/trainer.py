"""Desk-scale linear encoder and the epoch training loop.

Each epoch: freeze the encoder, filter and partition every tracklet, embed
the sub-tracklets (full surviving-frame mean for clustering), cluster, build
positive sets, initialize the memory banks, then run one batched step per
mini-batch: one forward pass over its (B, F, raw_dim) frames, the O(B n) loss,
one backward pass, the optimizer step, then the bank updates. The clustering
phase always sees a single frozen weight snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import nftp
from .clustering import sub_cluster_generate
from .memory import MemoryBanks, combined_loss, init_memory, positive_table, update_banks
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
# the label-state mode of each fixed merge; progressive switches between them
MERGE_MODES = {MERGE_NONE: MODE_DIRECT, MERGE_DIRECT: MODE_DIRECT, MERGE_REACHABLE: MODE_REACHABLE}


@dataclass
class Encoder:
    """Linear map plus L2 normalization; the smallest model with a full gradient path."""

    weights: np.ndarray  # (raw_dim, dim)


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


def _embed_batch(enc: Encoder, X: np.ndarray):
    """Normalized means of the normalized frame encodings of a (B, F, raw_dim) batch.

    Returns the (B, dim) embeddings and what the backward pass needs.
    """
    U = X @ enc.weights
    u_norms = np.linalg.norm(U, axis=2, keepdims=True)
    if np.any(u_norms == 0.0):
        raise ValueError("zero vector after the linear map")
    G = U / u_norms
    mean = G.mean(axis=1)
    m_norm = np.linalg.norm(mean, axis=1, keepdims=True)
    V = mean / m_norm
    return V, (X, G, u_norms, V, m_norm)


def _backprop_batch(grad_v: np.ndarray, cache) -> np.ndarray:
    """Gradient with respect to the weights of sum_b grad_v[b] . V[b]."""
    X, G, u_norms, V, m_norm = cache
    g_mean = (grad_v - (grad_v * V).sum(axis=1, keepdims=True) * V) / m_norm
    gG = np.broadcast_to(g_mean[:, None, :] / X.shape[1], G.shape)
    gU = (gG - (gG * G).sum(axis=2, keepdims=True) * G) / u_norms
    return X.reshape(-1, X.shape[2]).T @ gU.reshape(-1, G.shape[2])


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


@dataclass(frozen=True)
class PipelineToggles:
    """One row of the ablation matrix."""

    name: str = "full"
    filter_frames: bool = True
    do_partition: bool = True
    merge: str = MERGE_PROGRESSIVE

    @property
    def loss(self) -> str:
        """Without merging every positive set is {y}, where the CSC loss is InfoNCE."""
        return "infonce" if self.merge == MERGE_NONE else "csc"


BASELINE = PipelineToggles("baseline", filter_frames=False, do_partition=False, merge=MERGE_NONE)


def cluster_epoch(
    enc: Encoder,
    tracklets: Sequence[Tracklet],
    cfg: TrainConfig,
    epoch: int,
    toggles: PipelineToggles = PipelineToggles(),
):
    """The frozen-encoder phase of one epoch: NFTP, embed, cluster, merge.

    Returns (state, subtracklets, features, unit_frames, filtered-frame count):
    unit i is ``subtracklets[i]``, which is ``state.units[i]``, its label is
    ``state.labels[i]`` and ``features[i]`` its normalized mean encoding.
    ``unit_frames[i]`` is a (frames, indices) pair: its tracklet's own
    read-only (L, raw_dim) frames, not a copy, and the indices of the unit's
    surviving frames in them, a view into the noise filter's output.
    Tracklets are encoded, filtered, partitioned and averaged one at a time,
    so only one tracklet's frame encodings exist at once.
    """
    if len({t.id for t in tracklets}) != len(tracklets):
        raise ValueError("tracklet ids must be unique")
    subtracklets: list[SubTracklet] = []
    features, unit_frames, parent, filtered_frames = [], [], [], 0
    for ti, t in enumerate(tracklets):
        encoded = encode_frames(enc, t.frames)
        [(ft, sts)] = nftp.nftp_all([(t.id, encoded)], cfg, filter_frames=toggles.filter_frames,
                                    do_partition=toggles.do_partition)
        filtered_frames += len(ft.filtered_indices)
        for st in sts:
            a, b = st.frame_range
            idx = ft.surviving_indices[a : b + 1]
            mean = encoded[idx].mean(axis=0)
            features.append(mean / np.linalg.norm(mean))
            unit_frames.append((t.frames, idx))
        subtracklets += sts
        parent += [ti] * len(sts)
    features = np.asarray(features)
    labels = sub_cluster_generate(features, cfg)
    if toggles.merge == MERGE_NONE:  # each unit its own tracklet: a graph with no edges
        parent = range(labels.size)
    g = build_graph(labels, np.asarray(parent))
    if toggles.merge == MERGE_PROGRESSIVE:
        state = progressive_positive_sets(subtracklets, labels, g, epoch, cfg)
    else:
        state = merged_state(subtracklets, labels, g, MERGE_MODES[toggles.merge])
    return state, subtracklets, features, unit_frames, filtered_frames


def _fixed_k_positive_sets(state: LabelState, banks: MemoryBanks, k: int) -> LabelState:
    """Replace positives with each class's k nearest bank centroids (self included,
    ties by index), every pick added in both directions."""
    n = banks.num_classes
    nearest = np.argsort(-(banks.centroid @ banks.centroid.T), axis=1, kind="stable")[:, :k]
    positives = np.eye(n, dtype=bool)
    positives[np.arange(n)[:, None], nearest] = True
    return LabelState(state.units, state.labels, positives | positives.T, mode=MODE_DIRECT)


def train_with_toggles(
    tracklets: Sequence[Tracklet],
    cfg: TrainConfig,
    toggles: PipelineToggles,
    fixed_k: Optional[int] = None,
) -> TrainResult:
    if not tracklets:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(cfg.rng_seed)
    raw_dim = tracklets[0].frames.shape[1]
    enc = init_encoder(raw_dim, cfg.dim, rng)
    opt = AdamW(enc.weights.shape, cfg.weight_decay)
    result = TrainResult(encoder=enc, reports=[])

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        state, subtracklets, features, unit_frames, filtered = cluster_epoch(
            enc, tracklets, cfg, epoch, toggles
        )
        labeled = np.flatnonzero(state.labels != OUTLIER)
        result.labels, result.subtracklets, result.features = state, subtracklets, features

        if not labeled.size:
            result.reports.append(
                EpochReport(epoch, 0, state.num_outliers, state.mode, float("nan"), filtered,
                            time.perf_counter() - t0)
            )
            continue

        banks = init_memory(features, state.labels, cfg.temperature, cfg.momentum)  # skips outliers
        if fixed_k is not None:
            state = _fixed_k_positive_sets(state, banks, fixed_k)
            result.labels = state

        iters = cfg.iters_per_epoch or -(-labeled.size // cfg.batch_size)
        lr = cfg.lr_at(epoch)
        table = positive_table(state.positives, cfg.smoothing)
        X = np.empty((cfg.batch_size, cfg.frames_per_sample, raw_dim))
        losses = []
        for _ in range(iters):
            units = labeled[rng.integers(0, labeled.size, size=cfg.batch_size)]
            for b, i in enumerate(units):
                frames, idx = unit_frames[i]
                X[b] = frames[idx[nftp.sample_frames(idx.size, cfg.frames_per_sample,
                                                     cfg.sample_stride, rng)]]
            y = state.labels[units]
            V, cache = _embed_batch(enc, X)
            out = combined_loss(V, y, table, banks, cfg)
            grad_w = _backprop_batch(out.grad / cfg.batch_size, cache)
            enc.weights = opt.step(enc.weights, grad_w, lr)
            banks = update_banks(banks, V, y)
            losses.append(out.value)

        result.reports.append(
            EpochReport(epoch, state.num_clusters, state.num_outliers, state.mode,
                        float(np.mean(np.concatenate(losses))), filtered, time.perf_counter() - t0)
        )
    return result


def train(tracklets: Sequence[Tracklet], cfg: TrainConfig) -> TrainResult:
    """Full pipeline: noise filter, partition, progressive merging, CSC loss."""
    return train_with_toggles(tracklets, cfg, PipelineToggles())


def train_baseline(tracklets: Sequence[Tracklet], cfg: TrainConfig) -> TrainResult:
    """Whole-tracklet units, no filtering or merging, plain contrastive loss."""
    return train_with_toggles(tracklets, cfg, BASELINE)


def ablation_matrix(
    tracklets: Sequence[Tracklet],
    cfg: TrainConfig,
    toggle_rows: Sequence[PipelineToggles],
) -> dict[str, TrainResult]:
    """Run every toggle row with the shared seed from cfg."""
    return {row.name: train_with_toggles(tracklets, cfg, row) for row in toggle_rows}


def standard_ablation_rows() -> list[PipelineToggles]:
    """The five structural rows of the component ablation; the loss follows the merge."""
    return [
        BASELINE,
        PipelineToggles("nftp_infonce", merge=MERGE_NONE),
        PipelineToggles("nftp_reachable_csc", merge=MERGE_REACHABLE),
        PipelineToggles("nftp_direct_csc", merge=MERGE_DIRECT),
        PipelineToggles("full"),
    ]


def inference_features(enc: Encoder, tracklets: Sequence[Tracklet]) -> np.ndarray:
    """Whole-tracklet features for retrieval: normalized mean over all frames."""
    feats = []
    for t in tracklets:
        mean = encode_frames(enc, t.frames).mean(axis=0)
        feats.append(mean / np.linalg.norm(mean))
    return np.asarray(feats)
