"""Hot numeric kernels: pairwise Jaccard distance and density clustering.

Both run in plain numpy on a single core. The Jaccard kernel treats its
weight rows as sparse: it visits each column's nonzero rows (an inverted
index), so its work is the sum over columns of nnz^2. Besides the caller's
weights, it holds two n x n float arrays at a time: the output and, first,
a column-major copy of the weights, then the sum(max) matrix, plus an n x n
boolean mask at the end. DBSCAN holds the n x n boolean adjacency.
"""

from __future__ import annotations

import numpy as np

# perfbench/worker.py records this on its env line; there is no jitted path.
USE_NUMBA = False


def jaccard_from_weights(W: np.ndarray) -> np.ndarray:
    """Pairwise Jaccard distance between nonnegative neighbor-weight rows.

    The distance between i and j is 1 - sum(min(W[i], W[j])) / sum(max(W[i], W[j])).
    sum(min) is accumulated column by column over each column's nonzero rows,
    at a cost of the sum over columns of nnz^2; the buffer then becomes
    distances in place through sum(max) = sum(W[i]) + sum(W[j]) - sum(min).
    Two all-zero rows are at distance 0. The output is exactly symmetric:
    (i, j) and (j, i) add the same minima in the same column order.
    """
    W = np.ascontiguousarray(W, dtype=np.float64)
    n = W.shape[0]
    out = np.zeros((n, n))
    flat = out.reshape(-1)  # a view; pair (a, b) sits at a * n + b
    columns = np.ascontiguousarray(W.T)
    for j in range(columns.shape[0]):
        idx = np.flatnonzero(columns[j])
        v = columns[j, idx]
        flat[(idx[:, None] * n + idx).ravel()] += np.minimum.outer(v, v).ravel()
    del columns
    rowsum = W.sum(axis=1)
    maxsum = np.add.outer(rowsum, rowsum)
    maxsum -= out
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(out, maxsum, out=out)
    np.subtract(1.0, out, out=out)
    out[maxsum <= 0.0] = 0.0
    return out


def dbscan_labels(dist: np.ndarray, eps: float, min_samples: int) -> np.ndarray:
    """Density clustering on a precomputed distance matrix.

    Core points have >= min_samples neighbors within eps (self included).
    Clusters are connected components of core points under eps-reachability,
    labeled 1.. in order of their first core index; non-core points join the
    lowest-index core point within eps; everything else stays 0.
    """
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    adj = dist <= float(eps)
    core = adj.sum(axis=1) >= int(min_samples)
    labels = np.zeros(n, dtype=np.int64)
    next_label = 0
    for i in range(n):
        if not core[i] or labels[i] != 0:
            continue
        next_label += 1
        frontier = [i]
        labels[i] = next_label
        while frontier:
            p = frontier.pop()
            reach = np.flatnonzero(adj[p] & core & (labels == 0))
            labels[reach] = next_label
            frontier.extend(reach.tolist())
    border = np.flatnonzero(~core & (labels == 0))
    for i in border:
        claimers = np.flatnonzero(adj[i] & core)
        if claimers.size:
            labels[i] = labels[claimers[0]]
    return labels
