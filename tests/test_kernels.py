import numpy as np

from oracles import jaccard_pairwise
from subtrack import kernels


def _random_weights(rng, n):
    W = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.3)
    return np.ascontiguousarray(W)


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
        got = kernels.jaccard_from_weights(W)
        # only summation order differs from the per-pair enumeration
        assert np.abs(got - jaccard_pairwise(W)).max() <= 8 * np.finfo(np.float64).eps


def test_jaccard_numpy_zero_rows():
    W = np.zeros((3, 3))
    W[0, 0] = 1.0
    out = kernels.jaccard_from_weights(W)
    assert out[0, 0] == 0.0      # identical rows
    assert out[1, 2] == 0.0      # both-empty rows count as distance 0
    assert out[0, 1] == 1.0      # disjoint supports


def test_dispatch_empty_input():
    out = kernels.dbscan_labels(np.zeros((0, 0)), 0.3, 2)
    assert out.shape == (0,)
    assert out.dtype == np.int64
