import numpy as np
import pytest

from oracles import partition_array, sample_frames_per_segment
from subtrack.model import TrainConfig
from subtrack.nftp import noise_filter, partition, sample_frames
from subtrack.synth import SyntheticSpec, generate, oracle_noise_indices


def _filtered(frames, factor):
    """The indices that ``noise_filter`` drops: every frame index it does not keep."""
    return set(range(len(frames))) - set(noise_filter(frames, factor)[0].tolist())


def test_center_feature_identical():
    # identical frames: the center is their direction, so every distance and the threshold are 0
    kept, threshold = noise_filter([[1, 0], [1, 0]], 0.7)
    assert threshold == 0.0 and kept.tolist() == [0, 1]


def test_center_feature_symmetry():
    # the center of (1, 0) and (0, 1) is (0.5, 0.5), at cos 1/sqrt(2) from both
    _, threshold = noise_filter([[1, 0], [0, 1]], 1.0)
    assert threshold == pytest.approx((1 - 1 / np.sqrt(2)) ** 2, abs=1e-12)


def test_center_feature_hand_value():
    # the center (2/3, 1/3) is at cos 2/sqrt(5) from (1, 0) and 1/sqrt(5) from (0, 1)
    _, threshold = noise_filter([[1, 0], [1, 0], [0, 1]], 1.0)
    expected = (2 * (1 - 2 / np.sqrt(5)) ** 2 + (1 - 1 / np.sqrt(5)) ** 2) / 3
    assert threshold == pytest.approx(expected, abs=1e-12)


def test_center_feature_rejects_empty():
    with pytest.raises(ValueError):
        noise_filter(np.zeros((0, 2)), 0.7)


def test_frame_distance_identical_direction():
    # scale-free: a longer frame in the same direction is at distance 0 too
    kept, threshold = noise_filter([[1, 0], [3, 0]], 0.7)
    assert threshold == 0.0 and kept.tolist() == [0, 1]


def test_frame_distance_orthogonal():
    # the center (0, 2/3) is orthogonal to the first two frames: distances 1, 1 and 0
    kept, threshold = noise_filter([[1, 0], [-1, 0], [0, 2]], 1.0)
    assert threshold == 2 / 3 and kept.tolist() == [2]


def test_frame_distance_hand_value():
    # the center (2, 1) is at cos 1/sqrt(5) from (0, 1): distance 0.3056; (2, 1) is at 0
    expected = (1 - 1 / np.sqrt(5)) ** 2
    cos = 9 / np.sqrt(85)  # (4, 1) against (2, 1)
    kept, threshold = noise_filter([[0, 1], [2, 1], [4, 1]], 1.0)
    assert threshold == pytest.approx((expected + (1 - cos) ** 2) / 3, abs=1e-12)
    assert kept.tolist() == [1, 2]
    assert expected == pytest.approx(0.3056, abs=1e-4)


def test_center_and_distances_match_mean_and_linalg_norm_bit_for_bit():
    # each factor after the first puts the threshold at one frame's distance, so a last-bit
    # change in that distance, the center or the sum moves the threshold or the kept set
    rng = np.random.default_rng(13)
    for _ in range(60):
        frames = rng.normal(size=(int(rng.integers(1, 200)), int(rng.integers(1, 40))))
        center = frames.mean(axis=0)
        cos = (frames @ center) / (np.linalg.norm(frames, axis=1) * np.linalg.norm(center))
        dist = (1.0 - cos) ** 2
        total = dist.sum()
        factors = [0.7] + [total / (len(frames) * d) for d in dist[:5] if d > 0]
        for factor in factors:
            threshold = float(total / (len(frames) * factor))
            oracle = np.flatnonzero(dist <= threshold)
            if oracle.size == 0:
                oracle = np.array([np.argmin(dist)])
            kept, got = noise_filter(frames, factor)
            assert np.float64(got).tobytes() == np.float64(threshold).tobytes()
            assert kept.tolist() == oracle.tolist()


def test_frame_distance_rejects_zero_vector():
    with pytest.raises(ValueError):
        noise_filter([[1, 0], [0, 0]], 0.7)  # a zero frame
    with pytest.raises(ValueError):
        noise_filter([[1, 0], [-1, 0]], 0.7)  # a zero center


def test_noise_filter_identical_frames_nothing_removed():
    frames = np.tile([1.0, 0.0], (4, 1))
    kept, threshold = noise_filter(frames, 0.7)
    assert threshold == 0.0
    assert kept.tolist() == [0, 1, 2, 3]
    assert _filtered(frames, 0.7) == set()


def test_noise_filter_worked_example():
    frames = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    kept, threshold = noise_filter(frames, 0.7)
    q_expected = (2 * (1 - 2 / np.sqrt(5)) ** 2 + (1 - 1 / np.sqrt(5)) ** 2) / (3 * 0.7)
    assert threshold == pytest.approx(q_expected, abs=1e-12)
    assert threshold == pytest.approx(0.1561, abs=1e-4)
    assert kept.tolist() == [0, 1]
    assert _filtered(frames, 0.7) == {2}


def test_noise_filter_small_factor_keeps_everything():
    frames = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    kept, threshold = noise_filter(frames, 0.05)
    assert threshold > 2.0
    assert kept.tolist() == [0, 1, 2]


def test_noise_filter_keeps_the_first_closest_frame_when_all_lie_above():
    # both frames are at (1 - 1/sqrt(2))**2 from the center, twice the threshold at factor 2
    frames = [[1.0, 0.0], [0.0, 1.0]]
    kept, threshold = noise_filter(frames, 2.0)
    assert threshold == pytest.approx((1 - 1 / np.sqrt(2)) ** 2 / 2, abs=1e-12)
    assert kept.tolist() == [0]
    assert kept.dtype.kind == "i" and kept.ndim == 1


def test_noise_filter_monotone_in_factor():
    rng = np.random.default_rng(5)
    for _ in range(30):
        frames = rng.normal(size=(rng.integers(3, 40), 6))
        factors = sorted(rng.uniform(0.05, 3.0, size=4))
        removed = [_filtered(frames, f) for f in factors]
        for small, large in zip(removed, removed[1:]):
            assert small <= large


def test_noise_filter_permutation_covariant():
    rng = np.random.default_rng(9)
    frames = rng.normal(size=(20, 5))
    perm = rng.permutation(20)
    base = _filtered(frames, 0.7)
    permuted = _filtered(frames[perm], 0.7)
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
    bounds = partition(length, stride)
    assert type(bounds) is list and all(type(pair) is tuple and len(pair) == 2 for pair in bounds)
    assert all(type(v) is int for pair in bounds for v in pair)
    assert [b - a + 1 for a, b in bounds] == expected_lengths


def test_partition_of_no_frames_is_empty():
    assert partition(0, 32) == []


@pytest.mark.parametrize("stride", [1, 2, 3, 7, 16, 32, 64, 301])
def test_partition_equals_the_array_oracle(stride):
    for length in range(301):
        bounds = partition(length, stride)
        assert bounds == [tuple(row) for row in partition_array(length, stride).tolist()]
        assert all(type(v) is int for pair in bounds for v in pair)


@pytest.mark.parametrize("length,stride", [(-1, 4), (5, 0)])
def test_partition_rejects_a_negative_length_or_a_stride_below_one(length, stride):
    with pytest.raises(ValueError, match="stride must be >= 1 and length >= 0"):
        partition(length, stride)


def test_partition_reconstruction_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        length = int(rng.integers(1, 200))
        stride = int(rng.integers(1, 50))
        bounds = partition(length, stride)
        covered = []
        for a, b in bounds:
            covered.extend(range(a, b + 1))
        assert covered == list(range(length))
        if length >= stride:
            lengths = [b - a + 1 for a, b in bounds]
            assert min(lengths) >= stride
            assert lengths[-1] <= 2 * stride - 1


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


def test_filter_and_partition_counts():
    # 64 identical frames: none filtered, two units at the default stride
    cfg = TrainConfig()
    kept, _ = noise_filter(np.tile([1.0, 0.0], (64, 1)), cfg.filter_factor)
    assert kept.size == 64
    assert len(partition(kept.size, cfg.partition_stride)) == 2


def test_one_unit_per_exact_stride():
    # a tracklet of exactly one stride is one unit
    cfg = TrainConfig()
    tracklets = [np.tile([0.0, 1.0], (32, 1)) for _ in range(5)]
    units = [partition(noise_filter(frames, cfg.filter_factor)[0].size, cfg.partition_stride)
             for frames in tracklets]
    assert sum(len(bounds) for bounds in units) == 5


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
    tracklets, splice_log = generate(spec)
    cfg = TrainConfig()
    caught = total = 0
    for t in tracklets:
        truth = oracle_noise_indices(splice_log, t.id)
        if not truth:
            continue
        unit = t.frames / np.linalg.norm(t.frames, axis=1, keepdims=True)
        caught += len(truth & _filtered(unit, cfg.filter_factor))
        total += len(truth)
    assert total > 0
    assert caught / total > 0.6
