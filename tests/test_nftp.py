import numpy as np
import pytest

from oracles import sample_frames_per_segment
from subtrack.model import default_config
from subtrack.nftp import (
    center_feature,
    frame_distances,
    noise_filter,
    partition,
    sample_frames,
)
from subtrack.synth import SyntheticSpec, generate, oracle_noise_indices


def test_center_feature_identical():
    assert np.allclose(center_feature([[1, 0], [1, 0]]), [1, 0])


def test_center_feature_symmetry():
    assert np.allclose(center_feature([[1, 0], [0, 1]]), [0.5, 0.5])


def test_center_feature_hand_value():
    c = center_feature([[1, 0], [1, 0], [0, 1]])
    assert np.allclose(c, [2 / 3, 1 / 3])


def test_center_feature_rejects_empty():
    with pytest.raises(ValueError):
        center_feature(np.zeros((0, 2)))


def test_frame_distance_identical_direction():
    # scale-free: a longer frame in the same direction is at distance 0 too
    assert frame_distances([[1, 0], [3, 0]], [1, 0]).tolist() == [0.0, 0.0]


def test_frame_distance_orthogonal():
    assert frame_distances([[1, 0]], [0, 1]).tolist() == [1.0]


def test_frame_distance_hand_value():
    # cos((0,1), (2/3,1/3)) = (1/3) / (sqrt(5)/3)
    expected = (1 - (1 / 3) / (np.sqrt(5) / 3)) ** 2
    dist = frame_distances([[0, 1], [2, 1]], [2 / 3, 1 / 3])
    assert dist[0] == pytest.approx(expected, abs=1e-12)
    assert dist[1] == pytest.approx(0.0, abs=1e-12)
    assert expected == pytest.approx(0.3056, abs=1e-4)


def test_center_and_distances_match_mean_and_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(13)
    for _ in range(60):
        frames = rng.normal(size=(int(rng.integers(1, 200)), int(rng.integers(1, 40))))
        center = center_feature(frames)
        assert center.tobytes() == frames.mean(axis=0).tobytes()
        cos = (frames @ center) / (np.linalg.norm(frames, axis=1) * np.linalg.norm(center))
        assert frame_distances(frames, center).tobytes() == ((1.0 - cos) ** 2).tobytes()


def test_frame_distance_rejects_zero_vector():
    with pytest.raises(ValueError):
        frame_distances([[1, 0], [0, 0]], [1, 0])
    with pytest.raises(ValueError):
        frame_distances([[1, 0]], [0, 0])


def test_noise_filter_identical_frames_nothing_removed():
    frames = np.tile([1.0, 0.0], (4, 1))
    ft = noise_filter(frames, 0.7)
    assert ft.threshold == 0.0
    assert ft.surviving_indices.tolist() == [0, 1, 2, 3]
    assert ft.filtered_indices.tolist() == []


def test_noise_filter_worked_example():
    frames = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ft = noise_filter(frames, 0.7)
    q_expected = (2 * (1 - 2 / np.sqrt(5)) ** 2 + (1 - 1 / np.sqrt(5)) ** 2) / (3 * 0.7)
    assert ft.threshold == pytest.approx(q_expected, abs=1e-12)
    assert ft.threshold == pytest.approx(0.1561, abs=1e-4)
    assert ft.surviving_indices.tolist() == [0, 1]
    assert ft.filtered_indices.tolist() == [2]


def test_noise_filter_small_factor_keeps_everything():
    frames = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ft = noise_filter(frames, 0.05)
    assert ft.threshold > 2.0
    assert ft.filtered_indices.tolist() == []


def test_noise_filter_monotone_in_factor():
    rng = np.random.default_rng(5)
    for _ in range(30):
        frames = rng.normal(size=(rng.integers(3, 40), 6))
        factors = sorted(rng.uniform(0.05, 3.0, size=4))
        removed = [set(noise_filter(frames, f).filtered_indices) for f in factors]
        for small, large in zip(removed, removed[1:]):
            assert small <= large


def test_noise_filter_permutation_covariant():
    rng = np.random.default_rng(9)
    frames = rng.normal(size=(20, 5))
    perm = rng.permutation(20)
    base = set(noise_filter(frames, 0.7).filtered_indices)
    permuted = set(noise_filter(frames[perm], 0.7).filtered_indices)
    assert {int(np.flatnonzero(perm == i)[0]) for i in base} == permuted


@pytest.mark.parametrize(
    "length,stride,expected_lengths",
    [
        (64, 32, [32, 32]),
        (70, 32, [32, 38]),
        (20, 32, [20]),
        (32, 32, [32]),
        (95, 32, [32, 63]),
        (96, 32, [32, 32, 32]),
        (1, 1, [1]),
        # cluster_epoch without partitioning: the stride is the length, one unit
        (2, 2, [2]),
        (33, 33, [33]),
        (100, 100, [100]),
    ],
)
def test_partition_lengths(length, stride, expected_lengths):
    parts = partition("t", length, stride)
    assert [len(p) for p in parts] == expected_lengths
    assert all(p.parent_id == "t" for p in parts)
    assert [p.segment_index for p in parts] == list(range(1, len(parts) + 1))


def test_partition_reconstruction_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        length = int(rng.integers(1, 200))
        stride = int(rng.integers(1, 50))
        parts = partition("t", length, stride)
        covered = []
        for p in parts:
            covered.extend(range(p.frame_range[0], p.frame_range[1] + 1))
        assert covered == list(range(length))
        if length >= stride:
            assert all(len(p) >= stride for p in parts)
            assert len(parts[-1]) <= 2 * stride - 1


def test_sample_frames_fitting_span():
    rng = np.random.default_rng(0)
    starts = set()
    for _ in range(200):
        idx = sample_frames(32, 8, 4, rng)
        start = idx[0]
        starts.add(start)
        assert np.array_equal(idx, start + 4 * np.arange(8))
    assert max(starts) == 3  # 32 - 1 - 28
    assert min(starts) == 0


def test_sample_frames_wrapped():
    class FixedStart:
        def integers(self, low, high):
            return 0

    idx = sample_frames(5, 8, 4, FixedStart())
    assert idx.tolist() == [0, 4, 3, 2, 1, 0, 4, 3]


def test_sample_frames_always_valid_indices():
    rng = np.random.default_rng(3)
    for _ in range(300):
        length = int(rng.integers(1, 60))
        count = int(rng.integers(1, 12))
        stride = int(rng.integers(1, 8))
        idx = sample_frames(length, count, stride, rng)
        assert idx.shape == (count,)
        assert ((0 <= idx) & (idx < length)).all()


def test_nftp_all_counts():
    # 64 identical frames: none filtered, two units at the default stride
    cfg = default_config()
    ft = noise_filter(np.tile([1.0, 0.0], (64, 1)), cfg.filter_factor)
    assert len(ft.filtered_indices) == 0
    assert len(partition("a", ft.surviving_indices.size, cfg.partition_stride)) == 2


def test_nftp_all_one_subtracklet_per_exact_stride():
    # a tracklet of exactly one stride is one unit
    cfg = default_config()
    tracklets = [("t%d" % i, np.tile([0.0, 1.0], (32, 1))) for i in range(5)]
    units = [
        partition(tid, noise_filter(frames, cfg.filter_factor).surviving_indices.size,
                  cfg.partition_stride)
        for tid, frames in tracklets
    ]
    assert sum(len(sts) for sts in units) == 5


def test_sample_frames_batch_draw_equals_scalar_draws():
    # spans that fit and spans that wrap, one-frame segments, count 1 and stride 1
    for seed in range(5):
        lengths = np.random.default_rng(seed).integers(1, 50, size=64)
        lengths[:3] = 1
        for count, stride in [(8, 4), (1, 4), (8, 1), (1, 1), (12, 7)]:
            batch_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            picks = sample_frames(lengths, count, stride, batch_rng)
            assert picks.shape == (lengths.size, count)
            for length, row in zip(lengths, picks):
                assert row.tolist() == sample_frames_per_segment(
                    int(length), count, stride, scalar_rng).tolist()
            assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state


def test_sample_frames_rejects_an_empty_segment():
    with pytest.raises(ValueError):
        sample_frames(np.array([3, 0, 2]), 2, 1, np.random.default_rng(0))


def test_nftp_filter_recall_on_spliced_data():
    # spliced frames deviate from the tracklet center, so the filter should
    # catch a clear majority of them on well-separated synthetic data
    spec = SyntheticSpec(
        num_identities=6,
        tracklets_per_identity=3,
        tracklet_length_range=(60, 90),
        splice_rate=0.5,
        splice_len_range=(10, 16),
        jitter_scale=0.02,
        identity_separation=1.2,
        seed=21,
    )
    ds = generate(spec)
    cfg = default_config()
    caught = total = 0
    for t in ds.tracklets:
        truth = oracle_noise_indices(ds, t.id)
        if not truth:
            continue
        unit = t.frames / np.linalg.norm(t.frames, axis=1, keepdims=True)
        ft = noise_filter(unit, cfg.filter_factor)
        caught += len(truth & set(ft.filtered_indices))
        total += len(truth)
    assert total > 0
    assert caught / total > 0.6
