import numpy as np
import pytest

from oracles import dbscan_closure, jaccard_pairwise, k_reciprocal_weights, partition_of
from subtrack import kernels
from subtrack.clustering import (
    cosine_distance_matrix,
    dbscan,
    k_reciprocal_jaccard,
    sub_cluster_generate,
)
from subtrack.model import OUTLIER, default_config


def _unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_cosine_distance_identical_and_orthogonal():
    f = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    d = cosine_distance_matrix(f).values
    assert d[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert d[0, 2] == pytest.approx(1.0, abs=1e-12)


def test_cosine_distance_hand_value():
    f = np.array([[1.0, 0.0], [np.sqrt(2) / 2, np.sqrt(2) / 2]])
    d = cosine_distance_matrix(f).values
    assert d[0, 1] == pytest.approx(1 - np.sqrt(2) / 2, abs=1e-12)


def test_cosine_distance_rejects_unnormalized():
    with pytest.raises(ValueError):
        cosine_distance_matrix(np.array([[2.0, 0.0], [0.0, 1.0]]))


def _two_groups(rng, size=10, d=8):
    a = np.zeros(d)
    a[0] = 1.0
    b = np.zeros(d)
    b[1] = 1.0
    pts = np.concatenate(
        [
            a + 0.05 * rng.normal(size=(size, d)),
            b + 0.05 * rng.normal(size=(size, d)),
        ]
    )
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def test_jaccard_two_groups_within_less_than_between():
    rng = np.random.default_rng(4)
    feats = _two_groups(rng)
    dm = k_reciprocal_jaccard(feats, k1=8, k2=3)
    assert not dm.degenerate_fallback
    d = dm.values
    within = max(d[:10, :10].max(), d[10:, 10:].max())
    between = d[:10, 10:].min()
    assert within < between


def test_jaccard_matrix_properties():
    rng = np.random.default_rng(8)
    feats = _unit_rows(rng, 40, 6)
    d = k_reciprocal_jaccard(feats, k1=10, k2=4).values
    assert np.allclose(np.diag(d), 0.0)
    assert np.abs(d - d.T).max() < 1e-9
    assert d.min() >= 0.0 and d.max() <= 1.0


def test_k_reciprocal_weights_and_labels_match_set_oracle(monkeypatch):
    rng = np.random.default_rng(12)
    seen = []
    real = kernels.jaccard_from_weights
    monkeypatch.setattr(kernels, "jaccard_from_weights", lambda W: seen.append(W) or real(W))
    cases = [(10, 1, 11), (30, 6, 31), (4, 3, 5)]  # (k1, k2, n): k2 == 1, n == k1 + 1
    for _ in range(12):
        k1 = int(rng.integers(3, 25))
        cases.append((k1, int(rng.integers(1, k1)), int(rng.integers(k1 + 1, 90))))
    for k1, k2, n in cases:
        centers = rng.normal(size=(4, 6))
        f = centers[rng.integers(0, 4, n)] + 0.3 * rng.normal(size=(n, 6))
        f[rng.integers(0, n, n // 4)] = f[rng.integers(0, n, n // 4)]  # exact duplicates
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        dm = k_reciprocal_jaccard(f, k1, k2)
        W = k_reciprocal_weights(f, k1, k2)
        assert np.array_equal(seen.pop(), W)
        jac = jaccard_pairwise(W)
        for eps in (0.25, 0.5, 0.7):
            assert np.array_equal(dbscan(dm, eps, 2), dbscan(jac, eps, 2))


def test_jaccard_degenerate_falls_back_to_cosine():
    rng = np.random.default_rng(1)
    feats = _unit_rows(rng, 5, 4)
    dm = k_reciprocal_jaccard(feats, k1=30, k2=6)
    assert dm.degenerate_fallback
    assert np.allclose(dm.values, cosine_distance_matrix(feats).values)


def test_jaccard_rejects_bad_k():
    rng = np.random.default_rng(1)
    feats = _unit_rows(rng, 40, 4)
    with pytest.raises(ValueError):
        k_reciprocal_jaccard(feats, k1=4, k2=6)


def test_dbscan_three_point_example():
    d = np.array(
        [
            [0.0, 0.1, 0.9],
            [0.1, 0.0, 0.9],
            [0.9, 0.9, 0.0],
        ]
    )
    labels = dbscan(d, eps=0.25, min_samples=2)
    assert labels[0] == labels[1] == 1
    assert labels[2] == OUTLIER


def test_dbscan_identical_points_single_cluster():
    d = np.zeros((6, 6))
    labels = dbscan(d, eps=0.25, min_samples=2)
    assert (labels == 1).all()


def test_dbscan_all_far_all_outliers():
    d = np.ones((5, 5))
    np.fill_diagonal(d, 0.0)
    labels = dbscan(d, eps=0.25, min_samples=2)
    assert (labels == OUTLIER).all()


def _random_dist(rng, n):
    pts = rng.uniform(size=(n, 2))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    return d


def test_dbscan_matches_closure_oracle():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 120))
        d = _random_dist(rng, n)
        eps = float(rng.uniform(0.02, 0.4))
        min_samples = int(rng.integers(2, 6))
        labels = dbscan(d, eps, min_samples)
        got = partition_of(labels)
        expected = dbscan_closure(d, eps, min_samples)
        assert got == expected


def test_dbscan_labels_contiguous_and_ordered():
    rng = np.random.default_rng(3)
    d = _random_dist(rng, 80)
    labels = dbscan(d, eps=0.15, min_samples=2)
    present = sorted(set(labels) - {OUTLIER})
    assert present == list(range(1, len(present) + 1))
    # label 1 belongs to the earliest core point
    firsts = [int(np.flatnonzero(labels == y)[0]) for y in present]
    assert firsts == sorted(firsts)


def test_dbscan_permutation_invariant_partition():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = _random_dist(rng, 50)
        labels = dbscan(d, eps=0.2, min_samples=3)
        perm = rng.permutation(50)
        permuted = dbscan(d[np.ix_(perm, perm)], eps=0.2, min_samples=3)
        base_partition = partition_of(labels)
        mapped = partition_of(permuted)
        remapped = frozenset(
            frozenset(int(perm[i]) for i in group) for group in mapped[0]
        )
        assert remapped == base_partition[0]
        assert frozenset(int(perm[i]) for i in mapped[1]) == base_partition[1]


def test_dbscan_shrinking_eps_refines_partition():
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = _random_dist(rng, 60)
        small = dbscan(d, eps=0.1, min_samples=2)
        large = dbscan(d, eps=0.3, min_samples=2)
        groups_small, _ = partition_of(small)
        groups_large, _ = partition_of(large)
        for g in groups_small:
            assert any(g <= big for big in groups_large)


def test_sub_cluster_generate_clean_data_matches_groups():
    # zero jitter, zero splice: one point per (identity, camera) position, so
    # clusters recover exactly the distinct feature groups
    rng = np.random.default_rng(5)
    centers = _unit_rows(rng, 4, 8)
    feats = np.repeat(centers, 10, axis=0)
    cfg = default_config(k1=12, k2=3)
    state = sub_cluster_generate(feats, cfg)
    assert state.num_outliers == 0
    assert state.num_clusters == 4
    groups, _ = partition_of([state.assignment[k] for k in state.assignment.keys()])
    assert len(groups) == 4


def test_sub_cluster_generate_empty():
    state = sub_cluster_generate(np.zeros((0, 4)), default_config())
    assert state.assignment == {}
    assert state.positive_sets == {}


def test_sub_cluster_generate_contiguous_labels():
    rng = np.random.default_rng(2)
    feats = _two_groups(rng, size=12)
    cfg = default_config(k1=8, k2=3)
    state = sub_cluster_generate(feats, cfg)
    labels = sorted({y for y in state.assignment.values() if y != OUTLIER})
    assert labels == list(range(1, len(labels) + 1))
    assert set(state.positive_sets) == set(labels)
