"""Pairwise distances and strict density clustering over sub-tracklet features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import TrainConfig

@dataclass(frozen=True)
class DistanceMatrix:
    values: np.ndarray  # symmetric, zero diagonal
    degenerate_fallback: bool = False  # cosine values: too few samples for the Jaccard metric


def cosine_distance_matrix(features: np.ndarray) -> DistanceMatrix:
    features = np.ascontiguousarray(features, dtype=np.float64)
    norms = np.linalg.norm(features, axis=1)
    if features.shape[0] and np.max(np.abs(norms - 1.0)) > 1e-4:
        raise ValueError("cosine_distance_matrix expects L2-normalized rows")
    d = features @ features.T  # C-ordered, so numpy takes syrk: exactly symmetric
    np.subtract(1.0, d, out=d)
    np.fill_diagonal(d, 0.0)
    np.clip(d, 0.0, 2.0, out=d)
    return DistanceMatrix(d)


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest columns, self first, as a stable ascending sort orders them.

    ``dist`` must have a zero diagonal; it is set to -1 for the ranking and
    restored. Each row keeps its entries below its k-th smallest value plus
    the first ties at that value by column, exactly k, and these are sorted
    by (distance, column), as the stable sort orders them. Ties never add
    entries, so the sort holds k per row; rows are ranked a block at a time.
    """
    nearest = np.empty((dist.shape[0], k), dtype=np.intp)
    np.fill_diagonal(dist, -1.0)
    for rows in kernels.row_blocks(dist.shape[0]):
        block = dist[rows]
        kth = np.partition(block, k - 1, axis=1)[:, [k - 1]]  # a copy: the partition is freed
        keep = block <= kth
        extra = keep.sum(axis=1) - k
        for i in np.flatnonzero(extra):  # ties at the k-th value: keep the first by column
            tied = np.flatnonzero(block[i] == kth[i, 0])
            keep[i, tied[-extra[i] :]] = False
        r, c = np.divmod(np.flatnonzero(keep), len(dist))
        nearest[rows] = c[np.lexsort((c, block[r, c], r))].reshape(-1, k)
    np.fill_diagonal(dist, 0.0)
    return nearest


def _reciprocal(initial_rank: np.ndarray, k: int, rows: slice):
    """The rows' k + 1 forward neighbors, and which of them rank the row within their k + 1."""
    forward = initial_rank[rows, : k + 1]
    own = np.arange(initial_rank.shape[0])[rows, None, None]
    return forward, (initial_rank[forward, : k + 1] == own).any(axis=2)


def _expansion(initial_rank: np.ndarray, k1: int) -> np.ndarray:
    """The (n, n) mask of each row's k1-reciprocal set, expanded by its members' half-sets.

    Rows are expanded a block at a time, so the n * k1^2 index gathers are one block's.
    """
    n, half = initial_rank.shape[0], int(np.around(k1 / 2))
    blocks = kernels.row_blocks(n)
    halves = initial_rank[:, : half + 1]
    halves_ok = np.concatenate([_reciprocal(initial_rank, half, rows)[1] for rows in blocks])
    member = np.zeros((n, n), dtype=bool)
    for rows in blocks:
        near, near_ok = _reciprocal(initial_rank, k1, rows)
        block = member[rows]  # a view
        block[np.nonzero(near_ok)[0], near[near_ok]] = True
        # each candidate's half-set, and how much of it lies in the row's k1 set
        cand, cand_ok = halves[near], halves_ok[near]
        overlap = (block[np.arange(len(near))[:, None, None], cand] & cand_ok).sum(axis=2)
        accept = near_ok & (overlap >= (2.0 / 3.0) * cand_ok.sum(axis=2))
        # accepted half-sets join the k1 set, so member becomes each row's expansion
        take = accept[:, :, None] & cand_ok
        block[np.nonzero(take)[0], cand[take]] = True
    return member


def k_reciprocal_jaccard(features: np.ndarray, k1: int, k2: int) -> DistanceMatrix:
    """Jaccard distance over expanded k-reciprocal neighbor weight vectors.

    Units are ranked by cosine distance, self first and ties by index, but
    only each row's k1 + 1 nearest are found: a partition picks the
    (k1 + 1)-th value and only the entries up to it are sorted. Reciprocal
    neighbor sets are expanded with half-k1 reciprocal neighbors of their
    members when the overlap reaches 2/3, weighted by a Gaussian of the
    cosine distance, then smoothed by averaging over each sample's k2 nearest
    weight vectors. Every n x n step runs a row block at a time, so at most
    two n x n float arrays live at once: the cosine matrix and W, W and its
    smoothed copy, then W and the kernel's output. With fewer than k1 + 1
    samples the metric degenerates and the plain cosine matrix is returned
    with a flag.
    """
    if not k1 > k2 >= 1:
        raise ValueError("need k1 > k2 >= 1")
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    dist = cosine_distance_matrix(features).values
    if n <= k1:
        return DistanceMatrix(dist, degenerate_fallback=True)
    initial_rank = _nearest(dist, k1 + 1)
    member = _expansion(initial_rank, k1)

    W = np.zeros((n, n))
    for i in range(n):
        expansion = np.flatnonzero(member[i])
        weights = np.exp(-dist[i, expansion])
        W[i, expansion] = weights / weights.sum()
    del dist, member

    if k2 > 1:
        # a running sum over the k2 nearest rows, by row block: a mean's additions
        smooth = np.empty_like(W)
        for rows in kernels.row_blocks(n):
            block = np.take(W, initial_rank[rows, 0], axis=0, out=smooth[rows])
            for col in initial_rank[rows, 1:k2].T:
                block += W[col]
        W = smooth  # drops the unsmoothed rows
        W /= k2

    jac = kernels.jaccard_from_weights(W)  # exactly symmetric already
    np.fill_diagonal(jac, 0.0)
    np.clip(jac, 0.0, 1.0, out=jac)
    return DistanceMatrix(jac)


def dbscan(dist, eps: float, min_samples: int) -> np.ndarray:
    """Density clustering over a precomputed distance matrix.

    Returns an int array with cluster labels 1..n (assigned in order of first
    core point index) and OUTLIER (0) for unclustered samples.
    """
    if eps <= 0 or min_samples < 2:
        raise ValueError("need eps > 0 and min_samples >= 2")
    values = dist.values if isinstance(dist, DistanceMatrix) else np.asarray(dist, dtype=np.float64)
    return kernels.dbscan_labels(values, eps, min_samples)


def sub_cluster_generate(features: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """Cluster sub-tracklet features into reliable sub-clusters.

    Returns each row's label, aligned with ``features``: 1..n, or OUTLIER for
    a row that drops out of the epoch's training set.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return dbscan(k_reciprocal_jaccard(features, cfg.k1, cfg.k2), cfg.eps, cfg.min_samples)
