"""Centroid and hard-sample memory banks with the class-smoothed contrastive loss.

The banks are one (2, n, dim) array: row 0 the centroid bank, row 1 the hard bank.
One loss pass scores a batch of B embeddings against both at O(B n) cost for n
classes, with each row's analytic gradient (verified against finite differences in
the test suite) and weights formed from the batch's B rows of the positive mask.
One momentum step moves both banks; rows stay unit-norm for fixed-scale cosine logits.
"""

from __future__ import annotations

import numpy as np

from .model import TrainConfig


def init_memory(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The (2, n, dim) banks, both starting as the normalized per-class feature means.

    ``labels`` holds values 1..n aligned with feature rows; OUTLIER rows are
    ignored. Every class must have at least one member.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n = int(labels.max(initial=0))
    if n < 1:
        raise ValueError("init_memory needs at least one labeled class")
    count = np.bincount(labels, minlength=n + 1)[1:]
    if not count.all():
        raise ValueError(f"class {np.argmin(count) + 1} has no members")
    # each class adds its rows in row order from 0.0, as mean(axis=0) does
    centroid = np.zeros((n + 1, features.shape[1]))
    np.add.at(centroid, labels, features)
    centroid = centroid[1:] / count[:, None]
    norms = np.linalg.norm(centroid, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero row")
    centroid = centroid / norms
    return np.stack((centroid, centroid))


def batch_weights(positives: np.ndarray, labels: np.ndarray,
                  smoothing: float) -> tuple[np.ndarray, np.ndarray]:
    """(s, pos): each batch row's weight on every class and its row of ``positives``.

    Row y - 1 of the (n, n) bool ``positives`` marks class y's positives, which
    must hold y. The anchor weighs 1 - smoothing + smoothing/K, each other
    positive smoothing/K (0 when smoothing is, hence the mask), a negative 0.
    """
    if not positives.diagonal().all():
        raise ValueError("anchor label must belong to its positive set")
    if labels.size and (labels.min() < 1 or labels.max() > positives.shape[0]):
        raise ValueError("label outside 1..n")
    pos = positives[labels - 1]
    share = smoothing / pos.sum(axis=1)  # smoothing / K for each row's class
    s = np.where(pos, share[:, None], 0.0)
    s[np.arange(labels.size), labels - 1] = 1.0 - smoothing + share
    return s, pos


def csc_loss(V: np.ndarray, s: np.ndarray, pos: np.ndarray, rows: np.ndarray,
             temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """Class-smoothed contrastive loss of each row of ``V`` against one bank or both.

    On one (n, dim) bank it returns (value (B,), grad (B, dim)); (2, n, dim) ``rows``
    scores both banks in one pass, and both outputs then lead with that axis of 2.
    Row b weighs class j by s_j = s[b, j], and pos[b] marks its positives (``batch_weights``).
    With z = rows @ v_b / T and L the log-sum-exp of z over the negatives, positive j pays
    -s_j log p_j, p_j = 1 / (1 + e^(L - z_j)): its denominator holds only itself and the
    negatives, so positives never repel one another. The gradient is -s_j (1 - p_j) on z_j
    and softmax_neg(z)_k * sum_j s_j (1 - p_j) on negative k, so a row costs O(n); one
    without negatives pays 0. Positives {y} give plain InfoNCE for any smoothing in [0, 1]:
    the anchor weight 1 - smoothing + smoothing rounds to exactly 1.
    """
    z = V @ rows.swapaxes(-1, -2) / temperature
    e_neg = np.where(pos, -np.inf, z)  # z on the negatives
    m = e_neg.max(axis=-1, keepdims=True)
    m[~np.isfinite(m)] = 0.0  # a row without negatives
    e_neg = np.exp(e_neg - m)
    total = e_neg.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):  # from here on in place: few (..., B, n) arrays live
        d = np.subtract(m + np.log(total), z, out=z)  # L - z
    log1p_e = np.logaddexp(0.0, d)  # log(1 + e^(L - z)), exact also where it is tiny
    c = np.multiply(s, np.exp(d - log1p_e, out=d), out=d)  # s_j e^d / (1 + e^d) = s_j (1 - p_j)
    grad_z = np.divide(e_neg, total, out=np.zeros_like(e_neg), where=total > 0.0)  # softmax_neg
    grad_z *= c.sum(axis=-1, keepdims=True)
    grad_z -= c
    return np.multiply(s, log1p_e, out=log1p_e).sum(axis=-1), grad_z @ rows / temperature


def combined_loss(V: np.ndarray, labels: np.ndarray, positives: np.ndarray, banks: np.ndarray,
                  cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """(value, grad) per row: the weighted sum of the centroid- and hard-bank losses."""
    s, pos = batch_weights(positives, labels, cfg.smoothing)
    return tuple(cfg.centroid_weight * x[0] + cfg.hard_weight * x[1]
                 for x in csc_loss(V, s, pos, banks, cfg.temperature))


def update_banks(banks: np.ndarray, V: np.ndarray, labels: np.ndarray,
                 momentum: float) -> np.ndarray:
    """One momentum step moves each batch class's rows to its batch mean and hardest sample."""
    if labels.size == 0:
        raise ValueError("empty batch")
    if momentum == 1.0:
        return banks  # exact fixed point: renormalizing would only add round-off
    classes, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    sums = np.zeros((classes.size, V.shape[1]))
    np.add.at(sums, inverse, V)
    sims = np.einsum("ij,ij->i", V, banks[1][labels - 1]) / np.linalg.norm(V, axis=1)
    order = np.lexsort((np.arange(labels.size), sims, labels))  # a tie: the earliest sample
    hardest = order[np.concatenate(([True], np.diff(labels[order]) != 0))]  # in class order
    targets = np.stack((sums / counts[:, None], V[hardest]))  # centroid, hard
    new = momentum * banks[:, classes - 1] + (1.0 - momentum) * targets
    out = banks.copy()
    out[:, classes - 1] = new / np.linalg.norm(new, axis=-1, keepdims=True)
    return out
