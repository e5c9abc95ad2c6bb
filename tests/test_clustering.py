import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    dbscan_closure,
    dbscan_row_scan,
    expansion_by_2d_index,
    jaccard_by_column,
    jaccard_pairwise,
    k_reciprocal_weights,
    nearest_by_lexsort,
    partition_of,
    weights_by_row,
)
from subtrack import kernels
from subtrack.clustering import (
    _distances,
    _expansion,
    _nearest,
    _unit_rows,
    _weights,
    sub_cluster_generate,
)
from subtrack.model import OUTLIER, default_config


def _random_unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_cosine_distance_identical_and_orthogonal():
    f = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    d = _distances(_unit_rows(f), slice(0, len(f)))
    assert d[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert d[0, 2] == pytest.approx(1.0, abs=1e-12)


def test_cosine_distance_hand_value():
    f = np.array([[1.0, 0.0], [np.sqrt(2) / 2, np.sqrt(2) / 2]])
    d = _distances(_unit_rows(f), slice(0, len(f)))
    assert d[0, 1] == pytest.approx(1 - np.sqrt(2) / 2, abs=1e-12)


@pytest.mark.parametrize("n", [3, kernels.BLOCK_ROWS - 1, kernels.BLOCK_ROWS + 1, 500])
@pytest.mark.parametrize("layout", ["C", "F", "column-strided", "reversed-rows"])
def test_cosine_distance_exactly_symmetric(n, layout):
    rng = np.random.default_rng(n)
    for d in (8, 33, 64):
        f = _random_unit_rows(rng, n, d)
        if layout == "F":
            f = np.asfortranarray(f)
        elif layout == "column-strided":
            wide = np.zeros((n, 2 * d))
            wide[:, ::2] = f
            f = wide[:, ::2]
        elif layout == "reversed-rows":
            f = f[::-1]
        values = _distances(_unit_rows(f), slice(0, len(f)))
        assert np.array_equal(values, values.T)


def test_cosine_distance_rejects_unnormalized():
    with pytest.raises(ValueError):
        _unit_rows(np.array([[2.0, 0.0], [0.0, 1.0]]))
    rng = np.random.default_rng(5)
    for n in (4, 40):  # on both sides of n = k1
        feats = _random_unit_rows(rng, n, 4)
        feats[n // 2] *= 2.0
        with pytest.raises(ValueError, match="L2-normalized"):
            sub_cluster_generate(feats, default_config())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_row_is_refused(bad):
    # on both sides of n = k1; a NaN row once gave NaN distances, and an IndexError later
    rng = np.random.default_rng(5)
    for n in (4, 40):
        feats = _random_unit_rows(rng, n, 4)
        feats[n // 2, 1] = bad
        for call in (_unit_rows, lambda f: sub_cluster_generate(f, default_config())):
            with pytest.raises(ValueError, match="L2-normalized"):
                call(feats)


def _path_distances(f):
    """The cosine distances the clustering path computes: its row blocks, stacked."""
    f = np.ascontiguousarray(f)
    return np.concatenate([_distances(f, rows) for rows in kernels.row_blocks(len(f))])


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
    # at eps = the largest distance within a group, the kept pairs are exactly the
    # within-group ones: every between-group pair is farther
    rng = np.random.default_rng(4)
    feats = _two_groups(rng)
    rows, cols, vals, rowsum = _weights(feats, 8, 3)
    W = np.zeros((20, 20))
    W[rows, cols] = vals
    d = jaccard_by_column(W)
    eps = max(d[:10, :10].max(), d[10:, 10:].max())
    i, j = np.triu_indices(20, 1)
    within = (i < 10) == (j < 10)
    a, b = kernels.jaccard_pairs(rows, cols, vals, rowsum, eps)
    assert np.array_equal(a, i[within]) and np.array_equal(b, j[within])


def _stable_prefix(d, k):
    ranking = d.copy()
    np.fill_diagonal(ranking, -1.0)
    return np.argsort(ranking, axis=1, kind="stable")[:, :k]


def test_nearest_matches_stable_argsort_prefix_under_ties():
    rng = np.random.default_rng(6)
    cases = []
    for n, k in ((40, 31), (31, 31), (12, 5), (9, 9)):  # n == k is n == k1 + 1
        d = rng.integers(0, 4, size=(n, n)).astype(np.float64)  # integer values: many ties
        cases += [d, (d + d.T) / 2.0]
        dup = _random_unit_rows(rng, n, 3)
        dup[rng.integers(0, n, n // 2)] = dup[rng.integers(0, n, n // 2)]  # exact duplicate rows
        cases.append(_distances(_unit_rows(dup), slice(0, n)))
    cases.append(np.zeros((8, 8)))  # every entry ties with self
    for d in cases:
        np.fill_diagonal(d, 0.0)
        before = d.copy()
        for k in {1, 2, d.shape[0] // 2, d.shape[0]}:
            got = _nearest(d, k)
            assert np.array_equal(got, _stable_prefix(d, k))
            assert np.array_equal(got, nearest_by_lexsort(d, k))
            assert np.array_equal(got[:, 0], np.arange(d.shape[0]))  # self first
            assert np.array_equal(d, before)  # the diagonal is restored


def test_nearest_memory_is_bounded_under_ties():
    # all n entries of every row tie: the ranking still keeps only k per row,
    # so it peaks at the partition's n x n copy plus a boolean mask
    n = 500
    d = np.zeros((n, n))
    tracemalloc.start()
    try:
        got = _nearest(d, 31)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _stable_prefix(d, 31))
    assert peak <= 1.5 * 8 * n * n


def test_k_reciprocal_weights_and_labels_match_set_oracle():
    rng = np.random.default_rng(12)
    cases = [(10, 1, 11), (30, 6, 31), (4, 3, 5)]  # (k1, k2, n): k2 == 1, n == k1 + 1
    for _ in range(12):
        k1 = int(rng.integers(3, 25))
        cases.append((k1, int(rng.integers(1, k1)), int(rng.integers(k1 + 1, 90))))
    for k1, k2, n in cases:
        centers = rng.normal(size=(4, 6))
        f = centers[rng.integers(0, 4, n)] + 0.3 * rng.normal(size=(n, 6))
        f[rng.integers(0, n, n // 4)] = f[rng.integers(0, n, n // 4)]  # exact duplicates
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        rows, cols, vals, _ = _weights(f, k1, k2)
        W = np.zeros((n, n))
        W[rows, cols] = vals
        assert np.array_equal(W, k_reciprocal_weights(_path_distances(f), k1, k2))
        jac = jaccard_pairwise(W)
        for eps in (0.25, 0.5, 0.7):
            labels = sub_cluster_generate(f, default_config(k1=k1, k2=k2, eps=eps, min_samples=2))
            want = kernels.dbscan_pairs(n, *np.nonzero(np.triu(jac <= eps, 1)), 2)
            assert np.array_equal(labels, want)


def _clustering_cases(rng):
    """(features, k1, k2): exact duplicate rows, hence ties at the k-th distance,
    k2 == 1 and n == k1 + 1 among seeded random sizes."""
    cases = [(10, 1, 11), (30, 6, 31), (4, 3, 5), (2, 1, 3), (30, 1, 200)]
    for _ in range(20):
        k1 = int(rng.integers(2, 32))
        cases.append((k1, int(rng.integers(1, k1)), int(rng.integers(k1 + 1, k1 + 120))))
    for k1, k2, n in cases:
        centers = rng.normal(size=(max(1, n // 8), 6))
        f = centers[rng.integers(0, len(centers), n)] + 0.3 * rng.normal(size=(n, 6))
        f[rng.integers(0, n, n // 3)] = f[rng.integers(0, n, n // 3)]  # exact duplicates
        if n % 3 == 0:
            f = np.round(f, 1) + 0.05  # coarse values: many equal distances
        yield f / np.linalg.norm(f, axis=1, keepdims=True), k1, k2


def test_ranking_expansion_and_weights_match_per_row_oracles():
    # fed the path's own row-block distances, the block operations make the per-row
    # loops' additions in their order: same bits
    rng = np.random.default_rng(21)
    for f, k1, k2 in _clustering_cases(rng):
        n, dist = len(f), _path_distances(f)
        rank = nearest_by_lexsort(dist, k1 + 1)  # _weights ranks the same blocks itself
        assert np.array_equal(_nearest(dist, k1 + 1), rank)
        member = expansion_by_2d_index(rank, k1)
        cols, size, _ = _expansion(f, rank, k1)
        assert np.array_equal(np.repeat(np.arange(n), size) * n + cols, np.flatnonzero(member))
        W = weights_by_row(dist, member, rank, k2)
        rows, cols, vals, rowsum = _weights(f, k1, k2)
        assert np.array_equal(rows * n + cols, np.flatnonzero(W))
        assert vals.tobytes() == W[rows, cols].tobytes()
        assert rowsum.tobytes() == W.sum(axis=1).tobytes()


def test_row_block_distances_are_the_cosine_matrix_to_round_off():
    # a block product may round a dot product differently from the whole matrix's
    # (syrk), by an ulp or so: labels, not distance bits, are the end-to-end gate
    rng = np.random.default_rng(9)
    cases = [f for f, _, _ in _clustering_cases(rng)]
    cases += [_cluster_sizes_tool().features(n) for n in (377, 613)]
    for f in cases:
        dist = _path_distances(f)
        assert np.abs(dist - _distances(_unit_rows(f), slice(0, len(f)))).max() <= 1e-15
        assert np.all(np.diag(dist) == 0.0) and dist.min() >= 0.0 and dist.max() <= 2.0


@pytest.mark.parametrize("eps", [0.25, 0.5, 0.7])
def test_eps_pairs_match_the_thresholded_column_oracle(eps):
    rng = np.random.default_rng(31)
    for f, k1, k2 in _clustering_cases(rng):
        rows, cols, vals, rowsum = _weights(f, k1, k2)
        W = np.zeros((len(f), len(f)))
        W[rows, cols] = vals
        i, j = np.nonzero(jaccard_by_column(W) <= eps)
        a, b = kernels.jaccard_pairs(rows, cols, vals, rowsum, eps)
        assert np.array_equal(a, i[i < j]) and np.array_equal(b, j[i < j])


@pytest.mark.parametrize("eps", [0.25, 0.5, 0.7])
def test_sub_cluster_generate_matches_the_dense_row_scan(eps):
    rng = np.random.default_rng(41)
    for f, k1, k2 in _clustering_cases(rng):
        dist = _path_distances(f)
        rank = nearest_by_lexsort(dist, k1 + 1)
        jac = jaccard_by_column(weights_by_row(dist, expansion_by_2d_index(rank, k1), rank, k2))
        np.fill_diagonal(jac, 0.0)
        for min_samples in (2, 4):
            cfg = default_config(k1=k1, k2=k2, eps=eps, min_samples=min_samples)
            labels = sub_cluster_generate(f, cfg)
            assert np.array_equal(labels, dbscan_row_scan(jac, eps, min_samples))


@pytest.mark.parametrize("n, bound", [(600, 1.25), (2000, 0.5)])
def test_sub_cluster_generate_holds_no_square_array(n, bound):
    # W stays per-row nonzeros and only the eps-pairs leave the Jaccard kernel, so the
    # pass holds O(n k1) plus one row block: well below one n x n float array
    f = _cluster_sizes_tool().features(n)
    tracemalloc.start()
    try:
        sub_cluster_generate(f, default_config())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * n * n


def _cluster_sizes_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "cluster_sizes.py"
    spec = importlib.util.spec_from_file_location("cluster_sizes", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


# "<labels sha256>  <n> units" lines: tools/cluster_sizes.py's labels at its two smallest sizes
CLUSTER_SIZES = [(int(n), digest) for digest, n, _ in map(
    str.split, (Path(__file__).parent / "fixtures" / "cluster_sizes.txt").read_text().splitlines())]


@pytest.mark.parametrize("n, digest", CLUSTER_SIZES)
def test_cluster_sizes_labels_are_pinned(n, digest):
    # tools/cluster_sizes.py's seeded features: a change that moves one label fails here
    labels = sub_cluster_generate(_cluster_sizes_tool().features(n), default_config())
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    assert hashlib.sha256(labels.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n, digest", CLUSTER_SIZES)
def test_cluster_sizes_tool_prints_the_pinned_labels(n, digest):
    # the tool's own child run, in a fresh process with its one-BLAS-thread environment
    tool = _cluster_sizes_tool()
    out = subprocess.run([sys.executable, tool.__file__, "--one", str(n)], check=True,
                         capture_output=True, text=True, env={**os.environ, **tool.SINGLE_THREAD})
    assert json.loads(out.stdout.splitlines()[-1])["labels_sha256"] == digest


def test_jaccard_degenerate_falls_back_to_cosine():
    # up to k1 units, too few for the Jaccard metric, the cosine matrix's eps-pairs are
    # clustered; none to two units included
    rng = np.random.default_rng(1)
    for n in (5, 30, 0, 1, 2):  # k1 is 30
        feats = _random_unit_rows(rng, n, 4)
        for eps in (0.1, 0.25, 0.5):
            for min_samples in (2, 3):
                cfg = default_config(k1=30, k2=6, eps=eps, min_samples=min_samples)
                want = dbscan_row_scan(_distances(_unit_rows(feats), slice(0, n)), eps, min_samples)
                assert np.array_equal(sub_cluster_generate(feats, cfg), want)


def test_jaccard_rejects_bad_k():
    # the config refuses them when it is built: neither side of n = k1 sees them
    rng = np.random.default_rng(1)
    for n in (3, 4, 40):
        feats = _random_unit_rows(rng, n, 4)
        for k1, k2 in ((4, 6), (4, 4)):
            with pytest.raises(ValueError, match="k1 > k2 >= 1"):
                sub_cluster_generate(feats, default_config(k1=k1, k2=k2))


def test_dbscan_three_point_example():
    d = np.array(
        [
            [0.0, 0.1, 0.9],
            [0.1, 0.0, 0.9],
            [0.9, 0.9, 0.0],
        ]
    )
    labels = kernels.dbscan_pairs(len(d), *np.nonzero(np.triu(d <= 0.25, 1)), 2)
    assert labels[0] == labels[1] == 1
    assert labels[2] == OUTLIER


def test_dbscan_identical_points_single_cluster():
    d = np.zeros((6, 6))
    labels = kernels.dbscan_pairs(len(d), *np.nonzero(np.triu(d <= 0.25, 1)), 2)
    assert (labels == 1).all()


def test_dbscan_all_far_all_outliers():
    d = np.ones((5, 5))
    np.fill_diagonal(d, 0.0)
    labels = kernels.dbscan_pairs(len(d), *np.nonzero(np.triu(d <= 0.25, 1)), 2)
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
        labels = kernels.dbscan_pairs(len(d), *np.nonzero(np.triu(d <= eps, 1)), min_samples)
        got = partition_of(labels)
        expected = dbscan_closure(d, eps, min_samples)
        assert got == expected
        # the numbering and the border claims too
        assert np.array_equal(labels, dbscan_row_scan(d, eps, min_samples))


def test_dbscan_labels_contiguous_and_ordered():
    rng = np.random.default_rng(3)
    d = _random_dist(rng, 80)
    labels = kernels.dbscan_pairs(len(d), *np.nonzero(np.triu(d <= 0.15, 1)), 2)
    present = sorted(set(labels) - {OUTLIER})
    assert present == list(range(1, len(present) + 1))
    # label 1 belongs to the earliest core point
    firsts = [int(np.flatnonzero(labels == y)[0]) for y in present]
    assert firsts == sorted(firsts)


def test_dbscan_permutation_invariant_partition():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = _random_dist(rng, 50)
        labels = kernels.dbscan_pairs(len(d), *np.nonzero(np.triu(d <= 0.2, 1)), 3)
        perm = rng.permutation(50)
        moved = d[np.ix_(perm, perm)]
        permuted = kernels.dbscan_pairs(50, *np.nonzero(np.triu(moved <= 0.2, 1)), 3)
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
        small = kernels.dbscan_pairs(len(d), *np.nonzero(np.triu(d <= 0.1, 1)), 2)
        large = kernels.dbscan_pairs(len(d), *np.nonzero(np.triu(d <= 0.3, 1)), 2)
        groups_small, _ = partition_of(small)
        groups_large, _ = partition_of(large)
        for g in groups_small:
            assert any(g <= big for big in groups_large)


def test_sub_cluster_generate_clean_data_matches_groups():
    # zero jitter, zero splice: one point per (identity, camera) position, so
    # clusters recover exactly the distinct feature groups
    rng = np.random.default_rng(5)
    centers = _random_unit_rows(rng, 4, 8)
    feats = np.repeat(centers, 10, axis=0)
    cfg = default_config(k1=12, k2=3)
    labels = sub_cluster_generate(feats, cfg)
    assert labels.shape == (40,)
    groups, outliers = partition_of(labels)
    assert outliers == frozenset()
    assert groups == frozenset(frozenset(range(10 * g, 10 * g + 10)) for g in range(4))


def test_sub_cluster_generate_empty():
    labels = sub_cluster_generate(np.zeros((0, 4)), default_config())
    assert labels.shape == (0,)


def test_sub_cluster_generate_contiguous_labels():
    rng = np.random.default_rng(2)
    feats = _two_groups(rng, size=12)
    cfg = default_config(k1=8, k2=3)
    labels = sub_cluster_generate(feats, cfg)
    assert labels.shape == (len(feats),)
    clusters = sorted(set(labels.tolist()) - {OUTLIER})
    assert clusters == list(range(1, len(clusters) + 1))
