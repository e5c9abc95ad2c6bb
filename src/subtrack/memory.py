"""Centroid and hard-sample memory banks with contrastive losses.

All losses return both the scalar value and the analytic gradient with
respect to the input embedding; the gradients are verified against finite
differences in the test suite. Bank rows are kept unit-norm after every
update so cosine logits stay on a fixed scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import TrainConfig

WHICH_CENTROID = "centroid"
WHICH_HARD = "hard"


@dataclass(frozen=True)
class MemoryBanks:
    centroid: np.ndarray  # (n, dim), rows unit-norm
    hard: np.ndarray      # (n, dim), rows unit-norm
    temperature: float
    momentum: float

    @property
    def num_classes(self) -> int:
        return self.centroid.shape[0]

    def rows(self, which: str) -> np.ndarray:
        if which == WHICH_CENTROID:
            return self.centroid
        if which == WHICH_HARD:
            return self.hard
        raise ValueError(f"unknown bank {which!r}")


@dataclass(frozen=True)
class LossOutput:
    value: float
    grad: np.ndarray  # d(value)/d(embedding)

    def __add__(self, other: "LossOutput") -> "LossOutput":
        return LossOutput(self.value + other.value, self.grad + other.grad)

    def scaled(self, factor: float) -> "LossOutput":
        return LossOutput(factor * self.value, factor * self.grad)


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero row")
    return m / norms


def init_memory(
    features: np.ndarray,
    labels: np.ndarray,
    temperature: float,
    momentum: float,
) -> MemoryBanks:
    """Both banks start as the normalized per-class feature means.

    ``labels`` holds values 1..n aligned with feature rows; OUTLIER rows are
    ignored. Every class must have at least one member.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n = int(labels.max(initial=0))
    if n < 1:
        raise ValueError("init_memory needs at least one labeled class")
    centroid = np.empty((n, features.shape[1]))
    for j in range(1, n + 1):
        members = features[labels == j]
        if members.shape[0] == 0:
            raise ValueError(f"class {j} has no members")
        centroid[j - 1] = members.mean(axis=0)
    centroid = _normalize_rows(centroid)
    return MemoryBanks(centroid, centroid.copy(), float(temperature), float(momentum))


def infonce_loss(v: np.ndarray, label: int, banks: MemoryBanks, which: str) -> LossOutput:
    """Cross entropy of the bank-row softmax against the anchor's own class."""
    rows = banks.rows(which)
    n = rows.shape[0]
    if not 1 <= label <= n:
        raise ValueError(f"label {label} outside 1..{n}")
    z = rows @ v / banks.temperature
    m = z.max()
    exp_z = np.exp(z - m)
    total = exp_z.sum()
    p = exp_z / total
    value = -(z[label - 1] - m - np.log(total))
    grad_z = p.copy()
    grad_z[label - 1] -= 1.0
    return LossOutput(float(value), rows.T @ grad_z / banks.temperature)


def csc_loss(
    v: np.ndarray,
    label: int,
    positives: Iterable[int],
    banks: MemoryBanks,
    which: str,
    smoothing: float,
) -> LossOutput:
    """Class-smoothed contrastive loss over the anchor's positive set.

    The anchor class keeps weight 1 - smoothing + smoothing/K and the other
    K - 1 positives share smoothing/K each; each term's denominator contains
    only that positive and the negatives, so competing positives never repel
    one another.
    """
    rows = banks.rows(which)
    n = rows.shape[0]
    pos = sorted(set(int(p) for p in positives))
    if label not in pos:
        raise ValueError("anchor label must belong to its positive set")
    if not all(1 <= p <= n for p in pos):
        raise ValueError("positive set outside 1..n")
    k = len(pos)
    z = rows @ v / banks.temperature
    pos_idx = np.asarray(pos) - 1
    neg_mask = np.ones(n, dtype=bool)
    neg_mask[pos_idx] = False
    z_neg = z[neg_mask]

    value = 0.0
    grad_z = np.zeros(n)
    for j in pos_idx:
        s_j = (1.0 - smoothing + smoothing / k) if j == label - 1 else smoothing / k
        logits = np.concatenate(([z[j]], z_neg))
        m = logits.max()
        exp_l = np.exp(logits - m)
        total = exp_l.sum()
        # -s_j * log softmax_0(logits)
        value -= s_j * (logits[0] - m - np.log(total))
        p = exp_l / total
        grad_z[j] -= s_j * (1.0 - p[0])
        grad_z[neg_mask] += s_j * p[1:]
    return LossOutput(float(value), rows.T @ grad_z / banks.temperature)


def combined_loss(
    v: np.ndarray,
    label: int,
    positives: Iterable[int],
    banks: MemoryBanks,
    cfg: TrainConfig,
    kind: str = "csc",
) -> LossOutput:
    """Weighted sum of the hard-memory and centroid-memory losses."""
    if kind == "csc":
        hard = csc_loss(v, label, positives, banks, WHICH_HARD, cfg.smoothing)
        cent = csc_loss(v, label, positives, banks, WHICH_CENTROID, cfg.smoothing)
    elif kind == "infonce":
        hard = infonce_loss(v, label, banks, WHICH_HARD)
        cent = infonce_loss(v, label, banks, WHICH_CENTROID)
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    return hard.scaled(cfg.hard_weight) + cent.scaled(cfg.centroid_weight)


def _batch_by_label(batch: Sequence[tuple[np.ndarray, int]]) -> dict[int, list[np.ndarray]]:
    grouped: dict[int, list[np.ndarray]] = {}
    for v, y in batch:
        grouped.setdefault(int(y), []).append(np.asarray(v, dtype=np.float64))
    return grouped


def update_memory(banks: MemoryBanks, batch: Sequence[tuple[np.ndarray, int]]) -> MemoryBanks:
    """Momentum update of the centroid bank with per-class batch means."""
    if not batch:
        raise ValueError("empty batch")
    a = banks.momentum
    if a == 1.0:
        return banks  # exact fixed point: renormalizing would only add round-off
    centroid = banks.centroid.copy()
    for y, members in _batch_by_label(batch).items():
        mean = np.mean(members, axis=0)
        row = a * centroid[y - 1] + (1.0 - a) * mean
        centroid[y - 1] = row / np.linalg.norm(row)
    return MemoryBanks(centroid, banks.hard, banks.temperature, banks.momentum)


def update_hard_memory(banks: MemoryBanks, batch: Sequence[tuple[np.ndarray, int]]) -> MemoryBanks:
    """Momentum update of the hard bank with each class's least similar sample.

    Ties on cosine similarity resolve to the earliest sample in the batch.
    """
    if not batch:
        raise ValueError("empty batch")
    a = banks.momentum
    if a == 1.0:
        return banks  # exact fixed point, as for the centroid update
    hard = banks.hard.copy()
    for y, members in _batch_by_label(batch).items():
        sims = [float(m @ hard[y - 1]) / np.linalg.norm(m) for m in members]
        hardest = members[int(np.argmin(sims))]
        row = a * hard[y - 1] + (1.0 - a) * hardest
        hard[y - 1] = row / np.linalg.norm(row)
    return MemoryBanks(banks.centroid, hard, banks.temperature, banks.momentum)
