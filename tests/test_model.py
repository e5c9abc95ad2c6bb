import numpy as np
import pytest

from oracles import positive_mask
from subtrack.model import (
    MODE_DIRECT,
    MODE_REACHABLE,
    OUTLIER,
    LabelState,
    SubTracklet,
    Tracklet,
    default_config,
    validate_config,
)


def test_default_config_reference_values():
    cfg = default_config()
    assert cfg.filter_factor == 0.7
    assert cfg.smoothing == 0.1
    assert cfg.eps == 0.25
    assert cfg.min_samples == 2
    assert cfg.temperature == 0.05
    assert cfg.momentum == 0.1
    assert cfg.hard_weight == 0.5
    assert cfg.centroid_weight == 0.25
    assert cfg.partition_stride == 32
    assert cfg.frames_per_sample == 8
    assert cfg.sample_stride == 4
    assert cfg.batch_size == 32
    assert cfg.epochs == 150
    assert cfg.lr == 3.5e-4
    assert cfg.lr_decay_factor == 0.1
    assert cfg.lr_decay_period == 50
    assert cfg.merge_switch_epoch == 51


def test_validate_config_defaults_ok():
    assert validate_config(default_config()) == []


@pytest.mark.parametrize(
    "field,value,rule",
    [
        ("min_samples", 1, "min_samples >= 2"),
        ("smoothing", 1.5, "0 <= smoothing <= 1"),
        ("filter_factor", 0.0, "filter_factor > 0"),
        ("eps", -0.1, "eps > 0"),
        ("momentum", 1.2, "0 <= momentum <= 1"),
        ("partition_stride", 0, "partition_stride >= 1"),
        ("frames_per_sample", 0, "frames_per_sample >= 1"),
    ],
)
def test_validate_config_reports_violations(field, value, rule):
    cfg = default_config(**{field: value})
    assert rule in validate_config(cfg)


def test_tracklet_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        Tracklet("a", np.zeros((0, 4)))
    with pytest.raises(ValueError):
        Tracklet("a", np.array([[np.nan, 0.0]]))


def test_tracklet_frames_are_immutable():
    t = Tracklet("a", np.ones((3, 4)))
    with pytest.raises(ValueError):
        t.frames[0, 0] = 2.0


def test_subtracklet_invariants():
    st = SubTracklet("a", 1, (0, 9))
    assert len(st) == 10
    with pytest.raises(ValueError):
        SubTracklet("a", 0, (0, 9))
    with pytest.raises(ValueError):
        SubTracklet("a", 1, (5, 2))


def _units(n):
    return [SubTracklet("t", i, (0, 0)) for i in range(1, n + 1)]


def _mask(psets):
    return positive_mask(psets, len(psets))


def test_label_state_check_direct_symmetry():
    good = LabelState(
        _units(2), np.array([1, 2]),
        positives=_mask({1: frozenset({1, 2}), 2: frozenset({1, 2})}),
        mode=MODE_DIRECT,
    )
    assert good.check() == []
    bad = LabelState(
        _units(2), np.array([1, 2]),
        positives=_mask({1: frozenset({1, 2}), 2: frozenset({2})}),
        mode=MODE_DIRECT,
    )
    assert any("asymmetric" in p for p in bad.check())


def test_label_state_check_reachable_partition():
    good = LabelState(
        _units(3), np.array([1, 2, 3]),
        positives=_mask({
            1: frozenset({1, 2}),
            2: frozenset({1, 2}),
            3: frozenset({3}),
        }),
        mode=MODE_REACHABLE,
        refined=np.array([1, 1, 2]),
    )
    assert good.check() == []
    bad = LabelState(
        _units(2), np.array([1, 2]),
        positives=_mask({1: frozenset({1, 2}), 2: frozenset({1, 2})}),
        mode=MODE_REACHABLE,
        refined=np.array([1, 2]),
    )
    assert bad.check() != []


def test_label_state_self_membership_flagged():
    state = LabelState(
        _units(1), np.array([1]),
        positives=_mask({1: frozenset({2}), 2: frozenset({2})}),
        mode=MODE_DIRECT,
    )
    assert any("own positive set" in p for p in state.check())


def test_label_state_labels_outside_the_mask_flagged():
    for labels in ([1, 3], [-1, 1]):
        state = LabelState(_units(2), np.array(labels), positives=np.eye(2, dtype=bool))
        assert state.check() == ["labels outside 0..2"]
    missing = LabelState(_units(1), np.array([1]), np.eye(1, dtype=bool), mode=MODE_REACHABLE)
    assert missing.check() == ["REACHABLE mode requires refined labels"]


def test_positive_sets_is_a_read_only_view_of_the_mask():
    state = LabelState(_units(3), np.array([1, 2, 3]),
                       positives=_mask({1: {1, 3}, 2: {2}, 3: {1, 3}}))
    assert state.positive_sets == {1: {1, 3}, 2: {2}, 3: {1, 3}}
    assert all(type(y) is int for pos in state.positive_sets.values() for y in pos)
    with pytest.raises(TypeError):
        state.positive_sets[4] = frozenset({4})


def test_outlier_counting():
    state = LabelState(
        _units(3), np.array([1, OUTLIER, 1]),
        positives=_mask({1: frozenset({1})}),
    )
    assert state.num_outliers == 1
    assert state.num_clusters == 1
