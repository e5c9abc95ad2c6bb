"""Hot numeric kernels: pairwise Jaccard distance and density clustering.

Both run in plain numpy on a single core. The Jaccard kernel treats its
weight rows as sparse: it visits each column's nonzero rows, listed for a
block of columns at a time, so its work is the sum over columns of nnz^2.
Besides the caller's weights it holds one n x n float array, its output,
plus a block's nonzeros or ``BLOCK_ROWS`` rows. DBSCAN holds the n x n
boolean eps-mask only to list the eps-neighbour pairs, and works on those;
it shares ``components``, the one connected-components routine, with merging.
"""

from __future__ import annotations

import numpy as np

# perfbench/worker.py records this on its env line; there is no jitted path.
USE_NUMBA = False

# Rows per block of the n x n passes here and in ``clustering``.
BLOCK_ROWS = 64


def row_blocks(n: int) -> list[slice]:
    """Slices of ``BLOCK_ROWS`` rows (or columns) that cover range(n)."""
    return [slice(i, i + BLOCK_ROWS) for i in range(0, n, BLOCK_ROWS)]


def jaccard_from_weights(W: np.ndarray) -> np.ndarray:
    """Pairwise Jaccard distance between nonnegative neighbor-weight rows.

    The distance between i and j is 1 - sum(min(W[i], W[j])) / sum(max(W[i], W[j])).
    sum(min) is accumulated column by column over each column's nonzero rows
    in ascending order, at a cost of the sum over columns of nnz^2; the buffer
    then becomes distances in place, a row block at a time, through sum(max) =
    sum(W[i]) + sum(W[j]) - sum(min). Two all-zero rows are at distance 0. The
    output is exactly symmetric: (i, j) and (j, i) add the same minima in order.
    """
    W = np.ascontiguousarray(W, dtype=np.float64)
    n = W.shape[0]
    out = np.zeros((n, n))
    flat = out.reshape(-1)  # a view; pair (a, b) sits at a * n + b
    for span in row_blocks(W.shape[1]):  # W's nonzeros for a block of columns at a time
        cols, rows = np.divmod(np.flatnonzero(W[:, span].T != 0), n)  # by column, then row
        vals = W[rows, cols + span.start]
        bounds = np.searchsorted(cols, np.arange(BLOCK_ROWS + 1))
        for a, b in zip(bounds[:-1], bounds[1:]):
            idx, v = rows[a:b], vals[a:b]
            flat[(idx[:, None] * n + idx).ravel()] += np.minimum.outer(v, v).ravel()
    rowsum = W.sum(axis=1)
    for rows in row_blocks(n):
        block = out[rows]
        maxsum = np.add.outer(rowsum[rows], rowsum)
        maxsum -= block
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(block, maxsum, out=block)
        np.subtract(1.0, block, out=block)
        block[maxsum <= 0.0] = 0.0
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
