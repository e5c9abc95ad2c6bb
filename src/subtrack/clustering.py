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
    the first ties at that value by column, exactly k. These come out in
    ascending column order, so a stable argsort of their values orders them
    by (distance, column), as the full stable sort does. Ties never add
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
        c = (np.flatnonzero(keep) % len(dist)).reshape(-1, k)  # ascending in each row
        by_value = np.argsort(np.take_along_axis(block, c, axis=1), axis=1, kind="stable")
        nearest[rows] = np.take_along_axis(c, by_value, axis=1)
    np.fill_diagonal(dist, 0.0)
    return nearest


def _expansion(initial_rank: np.ndarray, k1: int) -> np.ndarray:
    """The (n, n) mask of each row's k1-reciprocal set, expanded by its members' half-sets.

    j is in i's reciprocal k-set when each is among the other's k + 1 nearest;
    one (n, n) int8 table of each row's nearest answers that for k1 and for
    half of k1 by one lookup per pair. Half-sets are added a row block at a
    time, so the n * k1^2 candidate gathers are one block's; a row reads and
    writes only its own row of the mask.
    """
    n, half = initial_rank.shape[0], int(np.around(k1 / 2))
    own = np.arange(n)[:, None]
    near, halves = initial_rank[:, : k1 + 1], initial_rank[:, : half + 1]
    # level[j * n + i]: 2 if i is among j's half + 1 nearest, 1 if among its k1 + 1, else 0
    level = np.zeros(n * n, dtype=np.int8)
    level[own * n + near] = 1
    level[own * n + halves] = 2
    near_ok = level[near * n + own] > 0
    halves_ok = level[halves * n + own] == 2
    del level
    member = np.zeros((n, n), dtype=bool)
    flat = member.reshape(-1)  # a view: (i, j) sits at i * n + j
    flat[(own * n + near)[near_ok]] = True
    half_size = halves_ok.sum(axis=1)
    for rows in kernels.row_blocks(n):
        # each candidate's half-set as cells of the row, and how much of it lies in its k1 set
        cand, cand_ok = halves[near[rows]] + own[rows, :, None] * n, halves_ok[near[rows]]
        overlap = (flat[cand] & cand_ok).sum(axis=2)
        accept = near_ok[rows] & (overlap >= (2.0 / 3.0) * half_size[near[rows]])
        # accepted half-sets join the k1 set, so member becomes each row's expansion
        flat[cand[accept[:, :, None] & cand_ok]] = True
    return member


def _weights(dist: np.ndarray, initial_rank: np.ndarray, k1: int, k2: int) -> np.ndarray:
    """W: exp(-distance) over each row's expansion, normalised to sum 1, then
    averaged over the row's k2 nearest rows, added in rank order.

    Rows of one expansion size are normalised by one (k, size) ``.sum(axis=1)``,
    which adds each row as its own ``.sum()`` does (``np.add.reduceat`` would
    not); a row block of W is one ``np.bincount`` over its k2 nearest rows'
    weights listed in rank order, so no unsmoothed n x n array is made.
    """
    n = len(dist)
    cells = np.flatnonzero(_expansion(initial_rank, k1))  # each row's expansion, ascending
    weights = np.exp(-dist.reshape(-1)[cells])
    cols, size = cells % n, np.bincount(cells // n, minlength=n)
    first = np.cumsum(size) - size
    for length in np.flatnonzero(np.bincount(size)):
        row = first[size == length, None] + np.arange(length)
        weights[row] /= weights[row].sum(axis=1, keepdims=True)
    W = np.empty((n, n))
    for rows in kernels.row_blocks(n):
        nearest = initial_rank[rows, :k2].ravel()
        pos = kernels.ranges(first[nearest], size[nearest])
        cell = np.repeat(np.arange(nearest.size) // k2 * n, size[nearest]) + cols[pos]
        W[rows] = np.bincount(cell, weights[pos], minlength=W[rows].size).reshape(-1, n)
    W /= k2
    return W


def k_reciprocal_jaccard(features: np.ndarray, k1: int, k2: int) -> DistanceMatrix:
    """Jaccard distance over expanded k-reciprocal neighbor weight vectors.

    Units are ranked by cosine distance, self first and ties by index, but
    only each row's k1 + 1 nearest are found: a partition picks the
    (k1 + 1)-th value and only the entries up to it are sorted. Reciprocal
    neighbor sets are expanded with half-k1 reciprocal neighbors of their
    members when the overlap reaches 2/3, weighted by a Gaussian of the
    cosine distance, then smoothed by averaging over each sample's k2 nearest
    weight vectors. Every n x n step runs a row block at a time, so at most
    two n x n float arrays live at once: the cosine matrix and W, then W and
    the kernel's output. Every step adds in the order of a per-row loop, so
    the distances are the loop's bit for bit (see ``kernels``). With
    fewer than k1 + 1 samples the metric degenerates and the plain cosine
    matrix is returned with a flag.
    """
    if not k1 > k2 >= 1:
        raise ValueError("need k1 > k2 >= 1")
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    dist = cosine_distance_matrix(features).values
    if n <= k1:
        return DistanceMatrix(dist, degenerate_fallback=True)
    W = _weights(dist, _nearest(dist, k1 + 1), k1, k2)
    del dist
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
