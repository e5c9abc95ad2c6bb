"""Centroid and hard-sample memory banks with the class-smoothed contrastive loss.

The loss takes a mini-batch of B embeddings and returns each row's value and
analytic gradient (verified against finite differences in the test suite) at
O(B n) cost for n classes. Bank rows are kept unit-norm after every update so
cosine logits stay on a fixed scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import TrainConfig


@dataclass(frozen=True)
class MemoryBanks:
    centroid: np.ndarray  # (n, dim), rows unit-norm
    hard: np.ndarray      # (n, dim), rows unit-norm
    temperature: float
    momentum: float

    @property
    def num_classes(self) -> int:
        return self.centroid.shape[0]


@dataclass(frozen=True)
class LossOutput:
    value: np.ndarray  # (B,), one loss per batch row
    grad: np.ndarray   # (B, dim), d(value[b])/d(V[b])


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
    norms = np.linalg.norm(centroid, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero row")
    centroid = centroid / norms
    return MemoryBanks(centroid, centroid.copy(), float(temperature), float(momentum))


@dataclass(frozen=True)
class PositiveTable:
    """Row y - 1: class y's weight on each class, and which classes are its positives.

    The anchor weighs 1 - smoothing + smoothing/K, each other positive
    smoothing/K (0 when smoothing is, hence the mask) and each negative 0.
    """

    weights: np.ndarray  # (n, n)
    mask: np.ndarray     # (n, n) bool


def positive_table(positives: np.ndarray, smoothing: float) -> PositiveTable:
    """Check that every class is its own positive and tabulate the weights of the
    (n, n) positive mask, where row y - 1 marks class y's positives."""
    if not positives.diagonal().all():
        raise ValueError("anchor label must belong to its positive set")
    share = smoothing / positives.sum(axis=1)  # smoothing / K for each class
    weights = np.where(positives, share[:, None], 0.0)
    np.fill_diagonal(weights, 1.0 - smoothing + share)
    return PositiveTable(weights, positives)


def csc_loss(V: np.ndarray, labels: np.ndarray, table: PositiveTable, rows: np.ndarray,
             temperature: float) -> LossOutput:
    """Class-smoothed contrastive loss of each row of ``V`` against one bank.

    With z = rows @ v_b / T and L the log-sum-exp of z over the negatives,
    positive j pays -s_j log p_j, p_j = 1 / (1 + e^(L - z_j)): its denominator
    holds only itself and the negatives, so positives never repel one another.
    The gradient is -s_j (1 - p_j) on z_j and softmax_neg(z)_k * sum_j
    s_j (1 - p_j) on negative k, so a row costs O(n); one without negatives
    pays 0. Positives {y} give plain InfoNCE for any smoothing in [0, 1]: the
    anchor weight 1 - smoothing + smoothing rounds to exactly 1.
    """
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 1 or labels.max() > rows.shape[0]):
        raise ValueError("label outside 1..n")
    s, pos = table.weights[labels - 1], table.mask[labels - 1]
    z = V @ rows.T / temperature
    z_neg = np.where(pos, -np.inf, z)
    m = z_neg.max(axis=1, keepdims=True)
    m[~np.isfinite(m)] = 0.0  # a row without negatives
    e_neg = np.exp(z_neg - m)
    total = e_neg.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        d = m + np.log(total) - z  # L - z
    log1p_e = np.logaddexp(0.0, d)  # log(1 + e^(L - z)), exact also where it is tiny
    c = s * np.exp(d - log1p_e)  # s_j (1 - p_j) without the cancellation of 1 - p_j
    soft_neg = np.divide(e_neg, total, out=np.zeros_like(e_neg), where=total > 0.0)
    grad_z = soft_neg * c.sum(axis=1, keepdims=True) - c
    return LossOutput((s * log1p_e).sum(axis=1), grad_z @ rows / temperature)


def combined_loss(V: np.ndarray, labels: np.ndarray, table: PositiveTable, banks: MemoryBanks,
                  cfg: TrainConfig) -> LossOutput:
    """Weighted sum of the hard-memory and centroid-memory losses, per row."""
    hard = csc_loss(V, labels, table, banks.hard, banks.temperature)
    cent = csc_loss(V, labels, table, banks.centroid, banks.temperature)
    return LossOutput(cfg.hard_weight * hard.value + cfg.centroid_weight * cent.value,
                      cfg.hard_weight * hard.grad + cfg.centroid_weight * cent.grad)


def update_banks(banks: MemoryBanks, V: np.ndarray, labels: np.ndarray) -> MemoryBanks:
    """Move each class's centroid row to its batch mean, hard row to its least similar sample."""
    if labels.size == 0:
        raise ValueError("empty batch")
    a = banks.momentum
    if a == 1.0:
        return banks  # exact fixed point: renormalizing would only add round-off

    def moved(rows, classes, targets):
        out = rows.copy()
        new = a * rows[classes - 1] + (1.0 - a) * targets
        out[classes - 1] = new / np.linalg.norm(new, axis=1, keepdims=True)
        return out

    classes, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    sums = np.zeros((classes.size, V.shape[1]))
    np.add.at(sums, inverse, V)
    sims = np.einsum("ij,ij->i", V, banks.hard[labels - 1]) / np.linalg.norm(V, axis=1)
    order = np.lexsort((np.arange(labels.size), sims, labels))  # a tie: the earliest sample
    hardest = order[np.concatenate(([True], np.diff(labels[order]) != 0))]
    return replace(banks, centroid=moved(banks.centroid, classes, sums / counts[:, None]),
                   hard=moved(banks.hard, labels[hardest], V[hardest]))

