"""Hot numeric kernels: pairwise Jaccard distance and density clustering.

Both run in plain numpy on a single core. The Jaccard kernel treats its
weight rows as sparse: it lists W's nonzeros by column and then, a group of
rows at a time, every pair of nonzeros that share a column, so its work is
about half the sum over columns of nnz^2. Besides the caller's weights it
holds one n x n float array, its output, plus W's nonzero lists and one row
group's pairs. DBSCAN holds the n x n boolean eps-mask only to list the
eps-neighbour pairs, and works on those; it shares ``components``, the one
connected-components routine, with merging.

The block operations here and in ``clustering`` make the floating-point
additions of a per-row, per-column or per-unit loop in that loop's order, so
every output bit is the loop's (``tests/oracles.py`` keeps the loops). Three
kinds of operation keep the order: ``np.bincount`` with weights and
``np.add.at`` add into each bin one value at a time, in input order, from
0.0; a (k, L) ``.sum(axis=1)`` adds each row as that row's own ``.sum()``
does; and a stable argsort keeps equal keys in input order. Two would not:
``np.add.reduceat`` groups a segment's additions differently from ``.sum()``
(the last bit differs on about half of random segments), and a BLAS matrix
product over a block of rows may split and vectorise each dot product's
additions differently from one row's.
"""

from __future__ import annotations

import numpy as np

# perfbench/worker.py records this on its env line; there is no jitted path.
USE_NUMBA = False

# Rows per block of the n x n passes here and in ``clustering``.
BLOCK_ROWS = 64
# Nonzero pairs per row group of the Jaccard kernel: its index temporaries stay in cache.
PAIRS_PER_BLOCK = 1 << 14


def row_blocks(n: int) -> list[slice]:
    """Slices of ``BLOCK_ROWS`` rows (or columns) that cover range(n)."""
    return [slice(i, i + BLOCK_ROWS) for i in range(0, n, BLOCK_ROWS)]


def ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges start[i], ..., start[i] + count[i] - 1, one after another."""
    return np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())


def jaccard_from_weights(W: np.ndarray) -> np.ndarray:
    """Pairwise Jaccard distance between nonnegative neighbor-weight rows.

    The distance between i and j is 1 - sum(min(W[i], W[j])) / sum(max(W[i], W[j])),
    with sum(max) = sum(W[i]) + sum(W[j]) - sum(min); two all-zero rows are at
    distance 0. sum(min) adds the minima of the columns both rows use in
    ascending column order, from 0.0, as a loop over columns would. The kernel
    lists W's nonzeros by column; then, a group of rows at a time, it lists
    every pair (i, j >= i) that shares a column, i's nonzeros in column order,
    each followed by its column's rows from i down, and one ``np.bincount``
    with weights adds each pair's minimum into its cell in list order. The
    lower triangle is the upper one mirrored: (i, j) and (j, i) add the same
    minima in the same order, so the output is exactly symmetric. The work is
    about half the sum over columns of nnz^2. A row group holds at most
    ``BLOCK_ROWS`` rows and ``PAIRS_PER_BLOCK`` pairs (more only for a single
    row that has more), and becomes distances as soon as its sums are complete.
    """
    W = np.ascontiguousarray(W, dtype=np.float64)
    n, m = W.shape
    out = np.empty((n, n))  # before the nonzero lists: 1.4 MB less peak RSS on cluster-600
    # the nonzeros by column, then row, listed a block of columns at a time (none if m is 0)
    blocks = [np.flatnonzero(W[:, span].T != 0) + span.start * n for span in row_blocks(m)]
    cols, rows = np.divmod(np.concatenate([np.arange(0), *blocks]), n)
    vals = W[rows, cols]
    # a nonzero's partners are its column's rows from its own down
    count = np.cumsum(np.bincount(cols, minlength=m))[cols] - np.arange(cols.size)
    at = np.argsort(rows * m + cols)  # column-list places of the nonzeros by row, then column
    del cols
    row_start = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    pairs_before = np.concatenate([[0], np.cumsum(count[at])])[row_start]
    rowsum = W.sum(axis=1)
    lo = 0
    while lo < n:
        hi = np.searchsorted(pairs_before, pairs_before[lo] + PAIRS_PER_BLOCK, side="right") - 1
        hi = min(max(hi, lo + 1), lo + BLOCK_ROWS, n)
        span, first = slice(lo, hi), at[row_start[lo] : row_start[hi]]
        k = count[first]
        pos = ranges(first, k)  # each pair's partner in the column list
        cells = np.take(rows, pos)
        cells += np.repeat((rows[first] - lo) * n, k)
        mins = np.take(vals, pos)
        np.minimum(mins, np.repeat(vals[first], k), out=mins)
        sums = np.bincount(cells, mins, minlength=(hi - lo) * n).reshape(hi - lo, n)
        del pos, cells, mins  # at most one group's pairs exist at once
        square = sums[:, span]  # upper triangle filled, lower still zero
        np.maximum(square, square.T, out=square)
        block = out[span, lo:]  # columns before lo are set: earlier groups mirrored them
        block[...] = sums[:, lo:]
        maxsum = np.add.outer(rowsum[span], rowsum[lo:])
        maxsum -= block
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(block, maxsum, out=block)
        np.subtract(1.0, block, out=block)
        block[maxsum <= 0.0] = 0.0
        out[hi:, span] = out[span, hi:].T  # the rows below take this group's distances
        lo = hi
    return out


def components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each node's smallest connected index, by min-label propagation and pointer
    jumping over the edges a[i] -> b[i], which must be listed in both directions."""
    root = np.arange(n)
    while True:
        low = root.copy()
        np.minimum.at(low, a, root[b])
        if np.array_equal(low := low[low], root):
            return root
        root = low


def dbscan_labels(dist: np.ndarray, eps: float, min_samples: int) -> np.ndarray:
    """Density clustering on a precomputed symmetric distance matrix.

    Core points have >= min_samples neighbors within eps (self included).
    Clusters are connected components of core points under eps-reachability,
    labeled 1.. in order of their first core index; non-core points join the
    lowest-index core point within eps; everything else stays 0. Components
    come from ``components`` over the core-core eps-neighbour pairs.
    """
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    n = dist.shape[0]
    src, dst = np.divmod(np.flatnonzero(dist <= float(eps)), n)  # by row, then by column
    core = np.bincount(src, minlength=n) >= int(min_samples)
    link = core[src] & core[dst]
    root = components(n, src[link], dst[link])
    heads = core & (root == np.arange(n))  # each component's first core index
    labels = np.where(core, np.cumsum(heads)[root], 0)
    claim = ~core[src] & core[dst]
    border, first = np.unique(src[claim], return_index=True)  # first: lowest core column
    labels[border] = labels[dst[claim][first]]
    return labels
