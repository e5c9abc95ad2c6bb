"""Desk-scale linear encoder and the epoch training loop.

Each epoch: freeze the encoder, filter and partition every tracklet, embed
the sub-tracklets (full surviving-frame mean for clustering), cluster, build
positive sets, initialize the (2, n, dim) memory banks, then run one batched
step per mini-batch: one forward pass over its (B, F, raw_dim) frames, one
O(B n) loss pass over both banks, one backward pass, the optimizer step, then
one momentum step over both banks. The clustering phase sees one frozen weight snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import nftp
from .clustering import sub_cluster_generate
from .memory import combined_loss, init_memory, update_banks
from .merging import build_graph, merge_positives
from .model import OUTLIER, LabelState, SubTracklet, Tracklet, TrainConfig

MERGE_NONE = "none"
MERGE_DIRECT = "direct"
MERGE_REACHABLE = "reachable"
MERGE_PROGRESSIVE = "progressive"  # DIRECT before cfg.merge_switch_epoch, REACHABLE from it


@dataclass
class Encoder:
    """Linear map plus L2 normalization; the smallest model with a full gradient path."""

    weights: np.ndarray  # (raw_dim, dim)


def init_encoder(raw_dim: int, dim: int, rng: np.random.Generator) -> Encoder:
    return Encoder(rng.normal(size=(raw_dim, dim)) / np.sqrt(raw_dim))


def _linear(enc: Encoder, frames: np.ndarray):
    """Per-frame encodings of (..., raw_dim) frames before normalization, and their norms."""
    u = np.asarray(frames, dtype=np.float64) @ enc.weights
    return u, np.sqrt(np.add.reduce(u * u, axis=-1, keepdims=True))  # np.linalg.norm's sum


def _encodes(norms: np.ndarray) -> bool:
    """No encoding norm is zero, overflowed or NaN."""
    return bool(np.all((norms > 0) & (norms < np.inf)))


def encode_frames(enc: Encoder, raw_frames: np.ndarray) -> np.ndarray:
    """Per-frame linear map followed by L2 normalization."""
    u, norms = _linear(enc, raw_frames)
    if not _encodes(norms):
        raise ValueError("the encoder weights map a frame to a zero or non-finite vector")
    return u / norms


def _embed_batch(enc: Encoder, X: np.ndarray):
    """Normalized means of the normalized frame encodings of a (B, F, raw_dim) batch.

    Returns the (B, dim) embeddings and what the backward pass needs; weights that
    diverge give NaN, which ``train`` refuses at the epoch's end.
    """
    u, u_norms = _linear(enc, X)
    G = u / u_norms
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


def _normalized_rows(rows: np.ndarray, name) -> np.ndarray:
    """Each row divided by its norm; the stacked product has ``row @ row``'s bits.

    A zero or non-finite norm is refused, and ``name(i)`` says whose row i is.
    """
    norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0])
    ok = (norms > 0) & (norms < np.inf)
    if not ok.all():
        raise ValueError(f"{name(int(np.argmin(ok)))}: the mean frame encoding has a zero or "
                         "non-finite norm")
    return rows / norms


def cluster_epoch(
    enc: Encoder,
    tracklets: Sequence[Tracklet],
    cfg: TrainConfig,
    epoch: int,
    toggles: PipelineToggles = PipelineToggles(),
):
    """The frozen-encoder phase of one epoch (1-based): NFTP, embed, cluster, merge.

    Returns (state, subtracklets, features, unit_frames, filtered-frame count):
    unit i is ``subtracklets[i]``, which is ``state.units[i]``, its label is
    ``state.labels[i]`` and ``features[i]`` its normalized mean encoding.
    ``unit_frames[i]`` is a (frames, indices) pair: its tracklet's own
    read-only (L, raw_dim) frames, not a copy, and the indices of the unit's
    surviving frames in them, a view into its tracklet's surviving indices.
    Tracklets are encoded, filtered and partitioned one at a time, so only one
    tracklet's frame encodings exist at once. One walk over a tracklet's int
    (start, end) bounds gives each unit's frame-order sum of its surviving
    encodings; all sums are divided by their lengths in one step. The merge
    mode is decided here, once: REACHABLE for the ``reachable`` merge and for
    ``progressive`` from ``cfg.merge_switch_epoch`` on, DIRECT otherwise.
    """
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    if len({t.id for t in tracklets}) != len(tracklets):
        raise ValueError("tracklet ids must be unique")
    subtracklets: list[SubTracklet] = []
    sums, lengths, unit_frames, parent, filtered_frames = [], [], [], [], 0
    for ti, t in enumerate(tracklets):
        encoded = encode_frames(enc, t.frames)
        keep = np.arange(len(encoded))
        if toggles.filter_frames:
            try:
                keep = nftp.noise_filter(encoded, cfg.filter_factor)[0]
            except ValueError as exc:
                raise ValueError(f"tracklet {t.id!r}: {exc}") from None
            filtered_frames += len(encoded) - keep.size
        surviving = encoded[keep]
        stride = cfg.partition_stride if toggles.do_partition else keep.size
        for s, (a, b) in enumerate(nftp.partition(keep.size, stride), 1):
            sums.append(np.add.reduce(surviving[a : b + 1], axis=0))
            lengths.append(b - a + 1)
            unit_frames.append((t.frames, keep[a : b + 1]))
            subtracklets.append(SubTracklet(t.id, s, (a, b)))
            parent.append(ti)
    features = _normalized_rows(np.stack(sums) / np.array(lengths)[:, None], lambda i: (
        f"tracklet {subtracklets[i].parent_id!r} segment {subtracklets[i].segment_index}"))
    del sums  # not held through clustering
    labels = sub_cluster_generate(features, cfg)
    if toggles.merge == MERGE_NONE:  # each unit its own tracklet: a graph with no edges
        parent = range(labels.size)
    reachable = toggles.merge == MERGE_REACHABLE or (
        toggles.merge == MERGE_PROGRESSIVE and epoch >= cfg.merge_switch_epoch)
    positives, refined = merge_positives(build_graph(labels, np.asarray(parent)), reachable)
    state = LabelState(subtracklets, labels, positives, refined)
    return state, subtracklets, features, unit_frames, filtered_frames


def _fixed_k_positive_sets(state: LabelState, banks: np.ndarray, k: int) -> LabelState:
    """Replace positives with each class's k nearest bank centroids (self included,
    ties by index), every pick added in both directions."""
    nearest = np.argsort(-(banks[0] @ banks[0].T), axis=1, kind="stable")[:, :k]
    positives = np.eye(banks.shape[1], dtype=bool)
    np.put_along_axis(positives, nearest, True, axis=1)
    return LabelState(state.units, state.labels, positives | positives.T)


def train(
    tracklets: Sequence[Tracklet],
    cfg: TrainConfig,
    toggles: PipelineToggles = PipelineToggles(),
    fixed_k: Optional[int] = None,
) -> TrainResult:
    """Train one ablation row, by default the full pipeline: noise filter, partition,
    progressive merging, CSC loss. ``fixed_k`` replaces the positives with each class's
    k nearest bank centroids."""
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
        mean_loss = float("nan")  # an epoch that labels no unit trains nothing
        if labeled.size:
            banks = init_memory(features, state.labels)  # skips outliers
            if fixed_k is not None:
                state = _fixed_k_positive_sets(state, banks, fixed_k)

            iters = cfg.iters_per_epoch or -(-labeled.size // cfg.batch_size)
            lr = cfg.lr_at(epoch)
            X = np.empty((cfg.batch_size, cfg.frames_per_sample, raw_dim))
            sizes = np.array([idx.size for _, idx in unit_frames])
            losses = []
            with np.errstate(all="ignore"):  # diverging weights warn nothing: refused below
                for _ in range(iters):
                    units = labeled[rng.integers(0, labeled.size, size=cfg.batch_size)]
                    picks = nftp.sample_frames(sizes[units], cfg.frames_per_sample,
                                               cfg.sample_stride, rng)
                    for b, i in enumerate(units):
                        frames, idx = unit_frames[i]
                        X[b] = frames[idx[picks[b]]]
                    y = state.labels[units]
                    V, cache = _embed_batch(enc, X)
                    value, grad = combined_loss(V, y, state.positives, banks, cfg)
                    grad_w = _backprop_batch(grad / cfg.batch_size, cache)
                    enc.weights = opt.step(enc.weights, grad_w, lr)
                    banks = update_banks(banks, V, y, cfg.momentum)
                    losses.append(value)
                if not np.isfinite(enc.weights).all():
                    raise ValueError("training diverged: non-finite encoder weights")
                if not _encodes(_linear(enc, X)[1]):
                    raise ValueError("training diverged: the last batch no longer encodes")
            mean_loss = float(np.mean(np.concatenate(losses)))

        result.labels, result.subtracklets, result.features = state, subtracklets, features
        result.reports.append(
            EpochReport(epoch, state.num_clusters, state.num_outliers, state.mode, mean_loss,
                        filtered, time.perf_counter() - t0)
        )
    return result


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
    means = [encode_frames(enc, t.frames).mean(axis=0) for t in tracklets]
    return _normalized_rows(np.array(means), lambda i: f"tracklet {tracklets[i].id!r}")
