import numpy as np
import pytest

from oracles import average_precision_enum, cluster_stats_per_label
from subtrack.evaluation import ClusterStats, cluster_stats, map_cmc, pairwise_prf
from subtrack.model import OUTLIER


def _on_circle(cosines):
    cosines = np.asarray(cosines, dtype=np.float64)
    return np.stack([cosines, np.sqrt(1.0 - cosines**2)], axis=1)


def test_map_textbook_five_sixths():
    # matches land at ranks 1 and 3: AP = (1/1 + 2/3) / 2 = 5/6 exactly
    query = np.array([[1.0, 0.0]])
    gallery = _on_circle([0.99, 0.9, 0.8, 0.5])
    g_meta = [(1, 1), (2, 0), (1, 2), (3, 0)]
    out = map_cmc(query, [(1, 0)], gallery, g_meta, k_max=4)
    assert out.map == (1.0 + 2.0 / 3.0) / 2.0  # bit-exact against the enumeration
    assert out.map == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert out.cmc[0] == 1.0
    assert out.skipped_queries == 0


def test_map_junk_rule_excludes_same_id_same_camera():
    query = np.array([[1.0, 0.0]])
    gallery = _on_circle([0.99, 0.8])
    # the nearest gallery item shares id and camera with the query -> junk
    out = map_cmc(query, [(1, 0)], gallery, [(1, 0), (1, 1)], k_max=2)
    assert out.map == 1.0
    assert out.cmc[0] == 1.0


def test_map_skips_query_without_valid_match():
    query = _on_circle([1.0, 0.9])
    gallery = _on_circle([0.95, 0.5])
    # query 1's only same-id item sits in its own camera -> skipped
    out = map_cmc(query, [(1, 0), (2, 0)], gallery, [(1, 1), (2, 0)], k_max=2)
    assert out.skipped_queries == 1
    assert out.map == 1.0  # only query 0 counts


def test_map_raises_when_no_query_valid():
    query = np.array([[1.0, 0.0]])
    gallery = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        map_cmc(query, [(1, 0)], gallery, [(1, 0)], k_max=1)


@pytest.mark.parametrize("k_max", [0, -1])
def test_map_rejects_k_max_below_one(k_max):
    with pytest.raises(ValueError, match="k_max"):
        map_cmc(np.eye(2), [(1, 0)], np.eye(2), [(1, 1), (2, 0)], k_max=k_max)


def test_map_tie_break_by_gallery_index():
    query = np.array([[1.0, 0.0]])
    gallery = _on_circle([0.9, 0.9])  # exact distance tie
    out = map_cmc(query, [(1, 0)], gallery, [(2, 0), (1, 1)], k_max=2)
    # the tied non-match at index 0 must rank first, so AP = 1/2
    assert out.map == 0.5


def test_cmc_non_decreasing_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = 30
        feats = rng.normal(size=(n, 6))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        meta = [(int(rng.integers(5)), int(rng.integers(3))) for _ in range(n)]
        try:
            out = map_cmc(feats, meta, feats, meta, k_max=10)
        except ValueError:
            continue
        assert (np.diff(out.cmc) >= -1e-15).all()
        assert 0.0 <= out.map <= 1.0
        assert out.cmc[-1] <= 1.0


def _oracle_map(feats, meta, k_max):
    ids = [m[0] for m in meta]
    cams = [m[1] for m in meta]
    dist = 1.0 - feats @ feats.T
    aps = []
    for qi in range(len(ids)):
        order = sorted(range(len(ids)), key=lambda j: (dist[qi, j], j))
        kept = [j for j in order if not (ids[j] == ids[qi] and cams[j] == cams[qi])]
        ap = average_precision_enum(ids[qi], [ids[j] for j in kept])
        if ap is not None:
            aps.append(ap)
    if not aps:
        return None
    return sum(aps) / len(aps)


def test_map_matches_enumeration_oracle():
    rng = np.random.default_rng(1)
    done = 0
    while done < 100:
        feats = rng.normal(size=(20, 5))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        meta = [(int(rng.integers(6)), int(rng.integers(3))) for _ in range(20)]
        expected = _oracle_map(feats, meta, k_max=10)
        if expected is None:
            continue
        out = map_cmc(feats, meta, feats, meta, k_max=10)
        assert abs(out.map - expected) <= 1e-12
        done += 1


def test_pairwise_prf_perfect_clustering():
    p, r, f1 = pairwise_prf([1, 1, 2, 2], [7, 7, 9, 9])
    assert (p, r, f1) == (1.0, 1.0, 1.0)


def test_pairwise_prf_single_cluster_two_identities():
    m = 4
    pseudo = [1] * (2 * m)
    gt = [0] * m + [1] * m
    p, r, f1 = pairwise_prf(pseudo, gt)
    expected_p = (2 * m * (m - 1) // 2) / (2 * m * (2 * m - 1) // 2)
    assert p == pytest.approx(expected_p, abs=1e-12)
    assert r == 1.0
    assert f1 == pytest.approx(2 * expected_p / (1 + expected_p), abs=1e-12)


def test_pairwise_prf_outliers_excluded():
    with_noise = pairwise_prf([1, 1, 2, OUTLIER], [7, 7, 9, 9])
    without = pairwise_prf([1, 1, 2], [7, 7, 9])
    assert with_noise == without


def test_pairwise_prf_rejects_too_few_labeled():
    with pytest.raises(ValueError):
        pairwise_prf([1, OUTLIER], [3, 4])


def test_pairwise_prf_label_renaming_invariant():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = 25
        pseudo = rng.integers(0, 5, size=n)
        gt = rng.integers(0, 4, size=n)
        if (pseudo != OUTLIER).sum() < 2:
            continue
        base = pairwise_prf(pseudo, gt)
        renamed = np.where(pseudo != OUTLIER, pseudo + 100, OUTLIER)
        gt_renamed = gt * 7 + 3
        assert pairwise_prf(renamed, gt_renamed) == base


def _oracle_prf(pseudo, gt):
    idx = [i for i, y in enumerate(pseudo) if y != OUTLIER]
    tp = pred = pos = 0
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            i, j = idx[a], idx[b]
            same_p = pseudo[i] == pseudo[j]
            same_g = gt[i] == gt[j]
            tp += same_p and same_g
            pred += same_p
            pos += same_g
    p = tp / pred if pred else 0.0
    r = tp / pos if pos else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def test_pairwise_prf_matches_pair_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        pseudo = rng.integers(0, 6, size=n).tolist()
        gt = rng.integers(0, 5, size=n).tolist()
        if sum(1 for y in pseudo if y != OUTLIER) < 2:
            continue
        got = pairwise_prf(pseudo, gt)
        expected = _oracle_prf(pseudo, gt)
        assert got == pytest.approx(expected, abs=1e-12)


def test_cluster_stats_hand_example():
    pseudo = [1, 1, 2, 2, 3, 3, OUTLIER]
    gt = [0, 0, 1, 2, 3, 3, 4]
    cams = [0, 1, 0, 0, 0, 0, 0]
    stats = cluster_stats(pseudo, gt, cams)
    # cluster 1: pure id 0 across two cameras; cluster 2 mixes ids; cluster 3
    # pure id 3 in one camera
    assert stats == ClusterStats(correct=2, cross_camera=1, incorrect=1, total_identities=5)
    assert stats.total_clusters == 3


def test_cluster_stats_all_outliers():
    stats = cluster_stats([OUTLIER, OUTLIER], [1, 2], [0, 0])
    assert stats.total_clusters == 0
    assert stats.total_identities == 2


def test_cluster_stats_matches_per_label_oracle():
    rng = np.random.default_rng(29)
    # label, identity and camera values that are negative and not contiguous
    labels, identities, cameras = [1, 2, 5, 17, -3], [-7, -2, 0, 3, 11, 40], [-5, -1, 4, 9]
    seen = np.zeros(4, dtype=np.int64)
    for case in range(200):
        n = int(rng.integers(1, 40))
        pseudo = rng.choice(labels[: int(rng.integers(1, 6))], size=n)
        if case % 4 == 0:
            pseudo[rng.random(n) < 0.3] = OUTLIER
        elif case % 4 == 1:
            pseudo[:] = OUTLIER if case % 8 == 1 else 1  # all outliers, or a single cluster
        # small value pools make pure and single-camera clusters common
        gt = rng.choice(identities[: int(rng.integers(1, 7))], size=n)
        cams = rng.choice(cameras[: int(rng.integers(1, 5))], size=n)
        expected = cluster_stats_per_label(pseudo, gt, cams)
        assert cluster_stats(pseudo, gt, cams) == ClusterStats(*expected)
        seen += np.array(expected) > 0
    assert seen[:3].min() > 20  # correct, cross-camera and incorrect clusters all occur
