"""Hot numeric kernels: pairwise Jaccard distance and density clustering.

Both run in plain numpy on a single core and hold no n x n array: the Jaccard
kernel takes W as its nonzeros by row and keeps only the pairs within eps,
and DBSCAN takes each pair once. Block operations here and in ``clustering``
add in the order of a per-row, per-column or per-unit loop, so their bits are
the loop's (``tests/oracles.py``): ``np.bincount`` and ``np.add.at`` add into
each bin in input order from 0.0, a (k, L) ``.sum(axis=1)`` adds each row as
its ``.sum()`` does, and a stable argsort keeps ties in input order
(``np.add.reduceat`` would not keep the order). The cosine distances are the
exception: a row block's BLAS product rounds some dot products (0.2-0.7% of
cells below 1000 units) an ulp away from the whole matrix's, so labels and
CLI outputs, not distance bits, are the gate.
"""

from __future__ import annotations

import numpy as np

# perfbench/worker.py records this on its env line; there is no jitted path.
USE_NUMBA = False

# Rows per block of the row-block passes here and in ``clustering``.
BLOCK_ROWS = 64
# Nonzero pairs per row group of the Jaccard kernel: its index temporaries stay in cache.
PAIRS_PER_BLOCK = 1 << 14


def row_blocks(n: int) -> list[slice]:
    """Slices of ``BLOCK_ROWS`` rows (or columns) that cover range(n)."""
    return [slice(i, min(i + BLOCK_ROWS, n)) for i in range(0, n, BLOCK_ROWS)]


def ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges start[i], ..., start[i] + count[i] - 1, one after another."""
    return np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())


def _row_groups(rows, cols, vals, n):
    """Yield (lo, sums): sums[i - lo, j - lo] = sum(min(W[i], W[j])) for j >= i (0
    below), added over shared columns in ascending order from 0.0. W's nonzeros by row
    are listed by column; a group of at most ``BLOCK_ROWS`` rows and ``PAIRS_PER_BLOCK``
    pairs lists i's nonzeros in column order, each followed by its column's rows from
    i down, and one ``np.bincount`` adds each pair's minimum in list order."""
    by_col = np.argsort(cols.astype(np.min_scalar_type(cols.max(initial=0))), kind="stable")
    at = np.empty_like(by_col)  # each nonzero's place in the column list
    at[by_col] = np.arange(by_col.size)
    listed = cols[by_col]
    count = np.cumsum(np.bincount(listed))[listed] - np.arange(listed.size)  # partners
    col_rows, col_vals = rows[by_col], vals[by_col]
    del by_col, listed
    row_start = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    pairs_before = np.concatenate([[0], np.cumsum(count[at])])[row_start]
    lo = 0
    while lo < n:
        hi = np.searchsorted(pairs_before, pairs_before[lo] + PAIRS_PER_BLOCK, side="right") - 1
        hi = min(max(hi, lo + 1), lo + BLOCK_ROWS, n)
        first, width = at[row_start[lo] : row_start[hi]], n - lo
        k = count[first]
        pos = ranges(first, k)  # each pair's partner in the column list
        cells = np.take(col_rows, pos)
        cells += np.repeat((col_rows[first] - lo) * width - lo, k)
        mins = np.take(col_vals, pos)
        np.minimum(mins, np.repeat(col_vals[first], k), out=mins)
        sums = np.bincount(cells, mins, minlength=(hi - lo) * width)
        del pos, cells, mins  # at most one group's pairs exist at once
        yield lo, sums.reshape(hi - lo, width)
        lo = hi


def _jaccard(s, a, b):
    """1 - s / (a + b - s) for rows with sums a, b and sum(min) s; 0 for empty rows."""
    maxsum = (a + b) - s
    with np.errstate(invalid="ignore", divide="ignore"):
        d = 1.0 - s / maxsum
    d[maxsum <= 0.0] = 0.0
    return d


def jaccard_pairs(rows, cols, vals, rowsum, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i < j) of rows of W (nonzeros by row; ``rowsum`` = W.sum(axis=1)) at
    Jaccard distance at most eps. That needs sum(min) >= (1 - eps) (sum(W[i]) +
    sum(W[j])) / (2 - eps), so cells below ``floor`` are skipped. The floor is
    conservative: the smallest row sum stands in for both, less 1e-9 relative, far
    more than a few ulps of round-off. Survivors get the bits of a loop that adds each
    pair's minima in ascending column order (``tests/oracles.py``). Every distance is
    at most 1, so an eps of 1 or more keeps every pair."""
    floor = (1 - eps) * 2 * rowsum.min(initial=np.inf) / (2 - eps) * (1 - 1e-9) if eps < 1 else 0
    found = [(np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),)]
    for lo, sums in _row_groups(rows, cols, vals, len(rowsum)):
        i, j = np.divmod(np.flatnonzero(sums >= floor), sums.shape[1])
        found.append((i + lo, j + lo, sums[i, j]))
    i, j, s = (np.concatenate(side) for side in zip(*found))
    near = (j > i) & (_jaccard(s, rowsum[i], rowsum[j]) <= eps)
    return i[near], j[near]


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


def dbscan_pairs(n: int, a: np.ndarray, b: np.ndarray, min_samples: int) -> np.ndarray:
    """DBSCAN over the eps-pairs (a[i], b[i]) of distinct points, each unordered pair once,
    in any order; each point is also its own neighbour: core points have >= min_samples
    neighbours; clusters are components of core points, labeled 1.. by their first core
    index; a non-core point joins its lowest-index core neighbour; the rest stay 0."""
    src, dst = np.concatenate([a, b, np.arange(n)]), np.concatenate([b, a, np.arange(n)])
    core = np.bincount(src, minlength=n) >= int(min_samples)
    link = core[src] & core[dst]
    root = components(n, src[link], dst[link])
    heads = core & (root == np.arange(n))  # each component's first core index
    labels = np.where(core, np.cumsum(heads)[root], 0)
    claim = ~core[src] & core[dst]
    key = np.unique(src[claim] * n + dst[claim])  # by border point, then core neighbour
    border, first = np.unique(key // n, return_index=True)
    labels[border] = labels[key[first] % n]
    return labels
