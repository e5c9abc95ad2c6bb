import numpy as np
import pytest

from oracles import (
    bfs_components,
    dbscan_row_scan,
    jaccard_by_column,
    jaccard_pairwise,
)
from subtrack import kernels


def _random_weights(rng, n):
    W = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.3)
    return np.ascontiguousarray(W)


def _pairs(W, eps):
    """``kernels.jaccard_pairs`` on a dense W's nonzeros by row."""
    rows, cols = np.nonzero(W)
    return kernels.jaccard_pairs(rows, cols, W[rows, cols], W.sum(axis=1), eps)


def _thresholded(jac, eps):
    """The pairs (i < j) of a distance matrix within eps, ordered by row, then column."""
    i, j = np.nonzero(jac <= eps)
    return i[i < j], j[i < j]


def _same_pairs(got, want):
    return all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def test_jaccard_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(40):
        n = int(rng.integers(2, 121))
        W = _random_weights(rng, n)
        W[rng.uniform(size=n) < 0.1] = 0.0  # some empty rows
        cases.append(W)
    shared = np.zeros((30, 30))
    shared[:, 7] = rng.uniform(0.1, 1.0, size=30)  # every row's one nonzero in one column
    cases += [np.array([[0.4]]), np.zeros((1, 1)), np.zeros((12, 12)),
              rng.uniform(0.1, 1.0, size=(60, 60)), shared]
    # sum(min) is a sequential sum over each pair's shared columns, so its
    # round-off grows with the nonzeros per column: ~5 ulp for 60 dense rows,
    # 8.5 for 120; the W of a 600-unit clustering pass (about 50 nonzeros per
    # column, at most about 120) reads 6.5-7.
    for W in cases:
        jac = jaccard_by_column(W)
        # only summation order differs from the per-pair enumeration
        assert np.abs(jac - jaccard_pairwise(W)).max() <= 8 * np.finfo(np.float64).eps
        for eps in (0.3, 0.7):
            assert _same_pairs(_pairs(W, eps), _thresholded(jac, eps))


@pytest.mark.parametrize("pairs_per_block", [1, 1 << 10, kernels.PAIRS_PER_BLOCK, 1 << 30])
def test_jaccard_matches_column_loop_oracle_bit_for_bit(monkeypatch, pairs_per_block):
    # each cell adds its minima in ascending column order, as a loop over columns
    # does, whatever the row groups: one row over budget, several, or all rows. A
    # distance d is kept at eps = d and dropped one ulp below it, so the pairs kept at
    # both pin the bits of every cell at that distance
    monkeypatch.setattr(kernels, "PAIRS_PER_BLOCK", pairs_per_block)
    rng = np.random.default_rng(4)
    cases = [np.zeros((0, 0)), np.array([[0.4]]), np.zeros((3, 3)), rng.uniform(size=(70, 70))]
    for _ in range(30):
        n = int(rng.integers(2, 160))
        W = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < rng.uniform(0.01, 0.6))
        W[rng.uniform(size=n) < 0.1] = 0.0  # empty rows
        W[rng.integers(0, n, n // 4)] = W[rng.integers(0, n, n // 4)]  # duplicate rows
        cases.append(np.round(W, 1) if n % 2 else W)  # equal values in a column
    for W in cases:
        jac = jaccard_by_column(W)
        upper = jac[np.triu_indices(len(W), 1)]
        for d in rng.choice(upper, size=min(8, upper.size), replace=False):
            for eps in (d, np.nextafter(d, 0.0)):
                assert _same_pairs(_pairs(W, eps), _thresholded(jac, eps))


@pytest.mark.parametrize("eps", [0.25, 0.5, 0.7])
def test_jaccard_pairs_keep_pairs_ulps_either_side_of_eps(eps):
    # row 2p holds 1.0 in column p; row 2p + 1 holds t_p there and 1 - t_p in a column of
    # its own, so the pair is at distance eps when t_p = 2 (1 - eps) / (2 - eps). With t_p
    # a few ulps either side, and every row sum about 1, the floor sits just below those
    # pairs' sum(min): each is kept or dropped exactly as the thresholded oracle says
    t = [2 * (1 - eps) / (2 - eps)]
    for _ in range(8):
        t = [np.nextafter(t[0], 0.0), *t, np.nextafter(t[-1], 1.0)]
    m = len(t)
    W = np.zeros((2 * m, 2 * m))
    W[2 * np.arange(m), np.arange(m)] = 1.0
    W[2 * np.arange(m) + 1, np.arange(m)] = t
    W[2 * np.arange(m) + 1, m + np.arange(m)] = 1.0 - np.array(t)
    oracle = jaccard_by_column(W)
    near = oracle[2 * np.arange(m), 2 * np.arange(m) + 1]
    ulp = np.spacing(eps)
    assert np.any(near <= eps) and np.any(near > eps) and np.abs(near - eps).max() <= 32 * ulp
    assert _same_pairs(_pairs(W, eps), _thresholded(oracle, eps))


def test_dbscan_pairs_take_the_pairs_in_any_order():
    # each unordered pair once, shuffled and each either way round; no self pairs
    rng, flips = np.random.default_rng(19), np.random.default_rng(20)
    for _ in range(30):
        n = int(rng.integers(1, 80))
        pts = rng.uniform(size=(n, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        eps, min_samples = float(rng.uniform(0.05, 0.3)), int(rng.integers(2, 5))
        a, b = np.nonzero(np.triu(d <= eps, 1))
        order = rng.permutation(a.size)
        flip = flips.uniform(size=a.size) < 0.5
        a, b = np.where(flip, b, a)[order], np.where(flip, a, b)[order]
        labels = kernels.dbscan_pairs(n, a, b, min_samples)
        assert np.array_equal(labels, dbscan_row_scan(d, eps, min_samples))


def test_jaccard_numpy_zero_rows():
    # both-empty rows count as distance 0, an empty row and a nonempty one as 1
    W = np.zeros((3, 3))
    W[0, 0] = 1.0
    for eps in (0.0, np.nextafter(1.0, 0.0)):
        assert _same_pairs(_pairs(W, eps), ([1], [2]))
    assert _same_pairs(_pairs(W, 1.0), ([0, 0, 1], [1, 2, 2]))


def test_dispatch_empty_input():
    out = kernels.dbscan_pairs(0, *np.nonzero(np.triu(np.zeros((0, 0)) <= 0.3, 1)), 2)
    assert out.shape == (0,)
    assert out.dtype == np.int64


def test_components_gives_each_node_its_smallest_connected_index():
    rng = np.random.default_rng(17)
    assert kernels.components(0, np.zeros(0, int), np.zeros(0, int)).shape == (0,)
    for _ in range(40):
        n = int(rng.integers(1, 200))
        a, b = rng.integers(0, n, size=(2, int(rng.integers(0, n))))
        root = kernels.components(n, np.concatenate([a, b]), np.concatenate([b, a]))
        for comp in bfs_components(range(n), zip(a.tolist(), b.tolist())):
            assert set(root[sorted(comp)].tolist()) == {min(comp)}
