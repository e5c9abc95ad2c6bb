"""Sub-tracklet features' eps-pairs, by cosine or k-reciprocal Jaccard distance, and DBSCAN."""

from __future__ import annotations

import numpy as np

from . import kernels
from .model import TrainConfig


def _unit_rows(features: np.ndarray) -> np.ndarray:
    features = np.ascontiguousarray(features, dtype=np.float64)
    norms = np.linalg.norm(features, axis=1)
    if features.shape[0] and not np.max(np.abs(norms - 1.0)) <= 1e-4:  # NaN fails too
        raise ValueError("clustering expects L2-normalized rows")
    return features


def _distances(features: np.ndarray, rows: slice) -> np.ndarray:
    """Rows ``rows`` of the cosine distances, zero diagonal, in [0, 2], from one block product
    (see ``kernels``). Of all rows, both operands share one buffer: syrk, exactly symmetric."""
    d = features[rows] @ features.T
    np.subtract(1.0, d, out=d)
    d[np.arange(len(d)), np.arange(rows.start, rows.stop)] = 0.0
    return np.clip(d, 0.0, 2.0, out=d)


def _nearest(dist: np.ndarray, k: int, lo: int = 0) -> np.ndarray:
    """Each row's k nearest columns, self first, as a stable ascending sort orders them.
    ``dist`` holds rows lo, lo + 1, ... of a matrix with a zero diagonal, set to -1 for
    the ranking and restored. A row keeps its entries below its k-th smallest value and
    the first ties at it by column, exactly k, in column order, so a stable argsort of
    their values orders them by (distance, column), as the full stable sort does."""
    own = (np.arange(len(dist)), lo + np.arange(len(dist)))
    nearest = np.empty((len(dist), k), dtype=np.intp)
    dist[own] = -1.0
    for rows in kernels.row_blocks(len(dist)):
        block = dist[rows]
        kth = np.partition(block, k - 1, axis=1)[:, [k - 1]]  # a copy: the partition is freed
        keep = block <= kth
        extra = keep.sum(axis=1) - k
        for i in np.flatnonzero(extra):  # ties at the k-th value: keep the first by column
            tied = np.flatnonzero(block[i] == kth[i, 0])
            keep[i, tied[-extra[i] :]] = False
        c = (np.flatnonzero(keep) % dist.shape[1]).reshape(-1, k)  # ascending in each row
        by_value = np.argsort(np.take_along_axis(block, c, axis=1), axis=1, kind="stable")
        nearest[rows] = np.take_along_axis(c, by_value, axis=1)
    dist[own] = 0.0
    return nearest


def _expansion(features: np.ndarray, rank: np.ndarray, k1: int):
    """Each unit's k1-reciprocal set plus the half-sets of its members that lie 2/3 in
    it: (columns ascending by row, sizes, exp(-distance) weights summing to 1 by row).
    "i is among j's nearest" comes, a row block at a time, from an int8 table level[i -
    lo, j] (2: among j's half + 1 nearest, 1: its k1 + 1) filled from reverse neighbour
    lists, grouped by a stable (radix, below 2^16 blocks) sort of block numbers. Then a
    (rows, n) mask holds a block's sets, and a second block product their distances."""
    n, half, listed = len(rank), int(np.around(k1 / 2)), rank.ravel()
    near, halves, block_of = rank, rank[:, : half + 1], listed // kernels.BLOCK_ROWS
    order = np.argsort(block_of.astype(np.min_scalar_type(n // kernels.BLOCK_ROWS)), kind="stable")
    reverse = np.split(order, np.cumsum(np.bincount(block_of)))  # entries naming each block
    level = np.zeros(min(n, kernels.BLOCK_ROWS) * n, dtype=np.int8)  # (i - lo, j): (i - lo) n + j
    near_ok, halves_ok = np.empty(rank.shape, dtype=bool), np.empty((n, half + 1), dtype=bool)
    for rows, entry in zip(kernels.row_blocks(n), reverse):
        cell = (listed[entry] - rows.start) * n + entry // (k1 + 1)
        level[cell] = 1 + (entry % (k1 + 1) <= half)
        own = np.arange(rows.stop - rows.start)[:, None] * n
        near_ok[rows] = level[own + near[rows]] > 0
        halves_ok[rows] = level[own + halves[rows]] == 2
        level[cell] = 0
    half_size = halves_ok.sum(axis=1)
    member = level.view(bool)  # the same cells, all 0 again
    cols, size, weights = [], [], []
    for rows in kernels.row_blocks(n):
        own = np.arange(rows.stop - rows.start)[:, None]
        member[(own * n + near[rows])[near_ok[rows]]] = True
        # each candidate's half-set as cells of the row, and how much of it lies in its k1 set
        cand, cand_ok = halves[near[rows]] + own[:, :, None] * n, halves_ok[near[rows]]
        overlap = (member[cand] & cand_ok).sum(axis=2)
        accept = near_ok[rows] & (overlap >= (2.0 / 3.0) * half_size[near[rows]])
        member[cand[accept[:, :, None] & cand_ok]] = True
        r, c = np.divmod(cells := np.flatnonzero(member), n)  # faster than a 2-D nonzero
        member[cells] = False
        cols.append(c)
        size.append(np.bincount(r, minlength=len(own)))
        d = 1.0 - (features[rows] @ features.T)[r, c]  # _distances' cells, on these only
        d[c == r + rows.start] = 0.0
        weights.append(np.exp(-np.clip(d, 0.0, 2.0, out=d)))
    cols, size, weights = np.concatenate(cols), np.concatenate(size), np.concatenate(weights)
    first = np.cumsum(size) - size
    for length in np.flatnonzero(np.bincount(size)):
        row = first[size == length, None] + np.arange(length)
        weights[row] /= weights[row].sum(axis=1, keepdims=True)
    return cols, size, weights


def _weights(features: np.ndarray, k1: int, k2: int):
    """W's nonzeros by row, then column, (rows, columns, values), and W.sum(axis=1).
    A row of W is the mean of its k2 nearest units' expansion weights, added in rank
    order by one ``np.bincount`` per row block; only the block's nonzeros are kept."""
    n, blocks = len(features), kernels.row_blocks(len(features))
    rank = np.concatenate([_nearest(_distances(features, r), k1 + 1, r.start) for r in blocks])
    cols, size, weights = _expansion(features, rank, k1)
    first, rowsum, nonzeros = np.cumsum(size) - size, np.empty(n), []
    for rows in blocks:
        nearest = rank[rows, :k2].ravel()
        pos = kernels.ranges(first[nearest], size[nearest])
        cell = np.repeat(np.arange(nearest.size) // k2 * n, size[nearest]) + cols[pos]
        block = np.bincount(cell, weights[pos], minlength=nearest.size // k2 * n).reshape(-1, n)
        block /= k2
        rowsum[rows] = block.sum(axis=1)
        r, c = np.divmod(np.flatnonzero(block), n)
        nonzeros.append((r + rows.start, c, block[r, c]))
    return (*(np.concatenate(part) for part in zip(*nonzeros)), rowsum)


def sub_cluster_generate(features: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """Each row's label, aligned with ``features``: 1..n, or OUTLIER for a row that sits
    out the epoch. Beyond k1 units the metric is the Jaccard distance between rows of W:
    each unit's k1 + 1 nearest by cosine distance give reciprocal sets, expanded by their
    members' half-k1 sets, weighted by a Gaussian of the distance and averaged over its k2
    nearest rows. W stays per-row nonzeros, and ``kernels.jaccard_pairs`` keeps the pairs
    within eps, so no n x n array is made. Up to k1 units, too few for the metric, the
    small cosine matrix gives the pairs at the same eps. One DBSCAN call takes either."""
    features, n = _unit_rows(features), len(features)
    if n <= cfg.k1:  # all rows at once: syrk, exactly symmetric, so one triangle is every pair
        a, b = np.nonzero(np.triu(_distances(features, slice(0, n)) <= cfg.eps, 1))
    else:
        a, b = kernels.jaccard_pairs(*_weights(features, cfg.k1, cfg.k2), cfg.eps)
    return kernels.dbscan_pairs(n, a, b, cfg.min_samples)
