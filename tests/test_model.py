import re

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
    TrainConfig,
)


def test_default_config_reference_values():
    cfg = TrainConfig()
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
    # the reference configuration passes every check, built directly or through replace
    assert TrainConfig().replace() == TrainConfig()


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
        # a config built in Python is checked too: these reach no training run
        ("momentum", 2.0, "0 <= momentum <= 1"),
        ("lr", -1.0, "lr > 0"),
        ("merge_switch_epoch", 0, "merge_switch_epoch >= 1"),
        ("iters_per_epoch", 0, "iters_per_epoch >= 1"),
        ("batch_size", 0, "batch_size >= 1"),
        ("lr_decay_period", 0, "lr_decay_period >= 1"),
        ("rng_seed", -1, "rng_seed >= 0"),
    ],
)
def test_validate_config_reports_violations(field, value, rule):
    # a config is checked when it is built, and again when replace builds a new one
    for build in (TrainConfig, TrainConfig().replace):
        with pytest.raises(ValueError, match=r"^invalid config: (.*; )?" + re.escape(rule)):
            build(**{field: value})


def test_tracklet_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        Tracklet("a", np.zeros((0, 4)))
    with pytest.raises(ValueError):
        Tracklet("a", np.array([[np.nan, 0.0]]))


def test_tracklet_refuses_an_all_zero_frame_by_name_and_index():
    # refused when built, so no command meets it later as an anonymous zero-norm encoding
    frames = np.ones((4, 3))
    frames[2] = 0.0
    for dtype in (np.float64, np.float32):
        with pytest.raises(ValueError, match=r"^tracklet 'dark': frame 2 is all zeros$"):
            Tracklet("dark", frames.astype(dtype))


def test_tracklet_frames_are_immutable():
    t = Tracklet("a", np.ones((3, 4)))
    with pytest.raises(ValueError):
        t.frames[0, 0] = 2.0


def test_subtracklet_invariants():
    st = SubTracklet("a", 1, (0, 9))
    assert st.frame_range == (0, 9)  # inclusive: ten frames
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
    )
    assert good.check() == []
    bad = LabelState(
        _units(2), np.array([1, 2]),
        positives=_mask({1: frozenset({1, 2}), 2: frozenset({2})}),
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
        refined=np.array([1, 1, 2]),
    )
    assert good.check() == []
    bad = LabelState(
        _units(2), np.array([1, 2]),
        positives=_mask({1: frozenset({1, 2}), 2: frozenset({1, 2})}),
        refined=np.array([1, 2]),
    )
    assert bad.check() != []


def test_label_state_self_membership_flagged():
    state = LabelState(
        _units(1), np.array([1]),
        positives=_mask({1: frozenset({2}), 2: frozenset({2})}),
    )
    assert any("own positive set" in p for p in state.check())


def test_label_state_labels_outside_the_mask_flagged():
    for labels in ([1, 3], [-1, 1]):
        state = LabelState(_units(2), np.array(labels), positives=np.eye(2, dtype=bool))
        assert state.check() == ["labels outside 0..2"]


def test_label_state_mode_follows_refined():
    direct = LabelState(_units(2), np.array([1, 2]), np.eye(2, dtype=bool))
    reach = LabelState(_units(2), np.array([1, 2]), np.eye(2, dtype=bool), np.array([1, 2]))
    assert (direct.mode, reach.mode) == (MODE_DIRECT, MODE_REACHABLE)
    assert direct.check() == reach.check() == []


@pytest.mark.parametrize("positives, refined, problem", [
    (np.ones((1, 2), bool), None, "positives must be an (n, n) bool array, not bool (1, 2)"),
    (np.ones(2, bool), None, "positives must be an (n, n) bool array, not bool (2,)"),
    (np.eye(2, dtype=np.int64), None, "positives must be an (n, n) bool array, not int64 (2, 2)"),
    (np.eye(2, dtype=bool), np.array([1]), "refined must have shape (2,), not (1,)"),
    (np.eye(2, dtype=bool), np.array([[1, 2]]), "refined must have shape (2,), not (1, 2)"),
])
def test_label_state_check_rejects_bad_shapes_alone(positives, refined, problem):
    # a malformed state reports only its shape, not the problems it would imply
    state = LabelState(_units(1), np.array([1]), positives, refined)
    assert state.check() == [problem]


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
