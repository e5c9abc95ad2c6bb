import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    backprop_to_weights,
    central_difference_grad,
    combined_loss_per_sample,
    embed_with_cache,
    fixed_k_positive_sets,
    positive_mask,
    relative_error,
    sample_frames_per_segment,
    unit_features_by_unit,
    unit_means_by_reshape,
)
from subtrack import nftp, trainer
from subtrack.memory import combined_loss, init_memory
from subtrack.model import (
    MODE_DIRECT,
    MODE_REACHABLE,
    OUTLIER,
    LabelState,
    SubTracklet,
    TrainConfig,
    Tracklet,
)
from subtrack.storage import dataclass_from_json, read_dataset, write_dataset, write_synthetic
from subtrack.synth import SyntheticSpec, generate
from subtrack.trainer import (
    BASELINE,
    MERGE_DIRECT,
    MERGE_NONE,
    MERGE_PROGRESSIVE,
    MERGE_REACHABLE,
    AdamW,
    Encoder,
    PipelineToggles,
    _backprop_batch,
    _embed_batch,
    _fixed_k_positive_sets,
    cluster_epoch,
    encode_frames,
    inference_features,
    init_encoder,
    standard_ablation_rows,
    train,
)


def _small_dataset(seed=0, identities=4, length=(40, 70)):
    spec = SyntheticSpec(
        num_identities=identities,
        num_cameras=2,
        tracklets_per_identity=3,
        tracklet_length_range=length,
        raw_dim=16,
        identity_separation=0.9,
        jitter_scale=0.05,
        seed=seed,
    )
    return generate(spec)[0]


def _small_cfg(**kw):
    base = dict(
        dim=8,
        epochs=2,
        batch_size=8,
        k1=6,
        k2=2,
        partition_stride=16,
        merge_switch_epoch=2,
        rng_seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_encode_frames_unit_norm():
    rng = np.random.default_rng(0)
    enc = init_encoder(10, 6, rng)
    out = encode_frames(enc, rng.normal(size=(20, 10)))
    assert out.shape == (20, 6)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_encode_frames_scale_invariant():
    rng = np.random.default_rng(1)
    enc = init_encoder(10, 6, rng)
    frames = rng.normal(size=(5, 10))
    assert np.allclose(encode_frames(enc, frames), encode_frames(enc, 3.0 * frames), atol=1e-12)


def test_embed_with_cache_matches_plain_forward():
    rng = np.random.default_rng(2)
    enc = init_encoder(12, 5, rng)
    X = rng.normal(size=(6, 7, 12))
    V, _ = _embed_batch(enc, X)
    for b in range(6):
        mean = encode_frames(enc, X[b]).mean(axis=0)
        assert np.allclose(V[b], mean / np.linalg.norm(mean), atol=1e-12)


def _random_step(rng, raw_dim, dim, n, batch_size, frames):
    """Weights, a frame batch, labels, multi-label positive sets and banks."""
    weights = rng.normal(size=(raw_dim, dim)) / np.sqrt(raw_dim)
    X = rng.normal(size=(batch_size, frames, raw_dim))
    labels = rng.integers(1, n + 1, size=batch_size)
    psets = {y: {y, int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))}
             for y in range(1, n + 1)}
    rows = rng.normal(size=(n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    banks = np.stack((rows, np.flipud(rows)))
    return weights, X, labels, psets, banks


def test_end_to_end_gradient_matches_finite_differences():
    # weights -> batched embed -> batched loss -> batch mean, as in one training step
    rng = np.random.default_rng(3)
    cfg = TrainConfig(temperature=0.2)
    checked = 0
    while checked < 100:
        weights, X, labels, psets, banks = _random_step(
            rng, int(rng.integers(2, 9)), int(rng.integers(2, 6)), int(rng.integers(2, 6)),
            int(rng.integers(2, 5)), int(rng.integers(1, 6)))
        positives = positive_mask(psets, len(banks[0]))

        def loss_of(w):
            V, _ = _embed_batch(Encoder(w), X)
            return combined_loss(V, labels, positives, banks, cfg)[0].mean()

        V, cache = _embed_batch(Encoder(weights), X)
        _, grad = combined_loss(V, labels, positives, banks, cfg)
        grad_w = _backprop_batch(grad / len(labels), cache)
        if np.linalg.norm(grad_w) < 1e-3:
            continue
        fd = central_difference_grad(loss_of, weights.copy())
        assert relative_error(grad_w, fd) <= 1e-4
        checked += 1


def test_batched_gradient_is_mean_of_per_sample_oracle():
    rng = np.random.default_rng(17)
    cfg = TrainConfig(temperature=0.2)
    for _ in range(50):
        weights, X, labels, psets, banks = _random_step(rng, 16, 8, 7, 32, 4)
        V, cache = _embed_batch(Encoder(weights), X)
        _, grad = combined_loss(V, labels, positive_mask(psets, 7), banks, cfg)
        grad_w = _backprop_batch(grad / len(labels), cache)
        expected = np.zeros_like(weights)
        for b, y in enumerate(labels):
            v, sample_cache = embed_with_cache(weights, X[b])
            _, grad_v = combined_loss_per_sample(v, y, psets[y], banks, cfg)
            expected += backprop_to_weights(grad_v, sample_cache) / len(labels)
        assert relative_error(grad_w, expected) <= 1e-12


def test_train_iteration_matches_per_sample_oracle():
    # one epoch of one iteration, replayed sample by sample from the same rng
    tracklets = _small_dataset()
    cfg = _small_cfg(epochs=1, iters_per_epoch=1, batch_size=16)
    result = train(tracklets, cfg)

    rng = np.random.default_rng(cfg.rng_seed)
    enc = init_encoder(tracklets[0].frames.shape[1], cfg.dim, rng)
    state, subtracklets, features, unit_frames, _ = cluster_epoch(enc, tracklets, cfg, 1)
    labels = state.labels.tolist()
    labeled = [i for i, y in enumerate(labels) if y != OUTLIER]
    banks = init_memory(features[labeled], np.asarray([labels[i] for i in labeled]))
    grad_w = np.zeros_like(enc.weights)
    values = []
    for i in rng.integers(0, len(labeled), size=cfg.batch_size):
        y = labels[labeled[i]]
        frames, idx = unit_frames[labeled[i]]
        sample = sample_frames_per_segment(idx.size, cfg.frames_per_sample, cfg.sample_stride, rng)
        v, cache = embed_with_cache(enc.weights, frames[idx[sample]])
        value, grad_v = combined_loss_per_sample(v, y, state.positive_sets[y], banks, cfg)
        grad_w += backprop_to_weights(grad_v, cache) / cfg.batch_size
        values.append(value)
    weights = AdamW(enc.weights.shape, cfg.weight_decay).step(enc.weights, grad_w, cfg.lr_at(1))
    assert relative_error(result.encoder.weights, weights) <= 1e-12
    assert result.reports[0].mean_loss == pytest.approx(np.mean(values), rel=1e-12)


def test_adamw_decoupled_weight_decay():
    opt = AdamW((1,), weight_decay=0.1)
    w = np.array([2.0])
    out = opt.step(w, np.zeros(1), lr=0.5)
    # zero gradient: the only movement is the decay term -lr * wd * w
    assert out[0] == pytest.approx(2.0 - 0.5 * 0.1 * 2.0, abs=1e-12)


def test_adamw_first_step_is_signed_unit_step():
    opt = AdamW((2,), weight_decay=0.0)
    w = np.zeros(2)
    out = opt.step(w, np.array([3.0, -0.5]), lr=0.01)
    # bias correction makes the first step lr * sign(grad) up to eps
    assert np.allclose(out, [-0.01, 0.01], atol=1e-6)


def test_lr_schedule_decade_steps():
    cfg = TrainConfig(lr=1e-3)
    assert cfg.lr_at(1) == pytest.approx(1e-3)
    assert cfg.lr_at(50) == pytest.approx(1e-3)
    assert cfg.lr_at(51) == pytest.approx(1e-4)
    assert cfg.lr_at(100) == pytest.approx(1e-4)
    assert cfg.lr_at(101) == pytest.approx(1e-5)
    assert cfg.lr_at(150) == pytest.approx(1e-5)


def test_zero_epochs_leaves_encoder_at_init():
    tracklets = _small_dataset()
    cfg = _small_cfg(epochs=0)
    result = train(tracklets, cfg)
    rng = np.random.default_rng(cfg.rng_seed)
    expected = init_encoder(tracklets[0].frames.shape[1], cfg.dim, rng)
    assert np.array_equal(result.encoder.weights, expected.weights)
    assert result.reports == []


def test_train_deterministic_per_seed():
    tracklets = _small_dataset()
    cfg = _small_cfg()
    a = train(tracklets, cfg)
    b = train(tracklets, cfg)
    assert np.array_equal(a.encoder.weights, b.encoder.weights)
    # everything except the wall-clock timing must match exactly
    strip = lambda r: (r.epoch, r.num_clusters, r.num_outliers, r.mode, r.mean_loss, r.filtered_frames)
    assert [strip(r) for r in a.reports] == [strip(r) for r in b.reports]
    c = train(tracklets, cfg.replace(rng_seed=99))
    assert not np.array_equal(a.encoder.weights, c.encoder.weights)


def test_cluster_epoch_is_pure_given_frozen_weights():
    tracklets = _small_dataset()
    cfg = _small_cfg()
    enc = init_encoder(tracklets[0].frames.shape[1], cfg.dim, np.random.default_rng(0))
    s1, st1, f1, _, n1 = cluster_epoch(enc, tracklets, cfg, epoch=1)
    s2, st2, f2, _, n2 = cluster_epoch(enc, tracklets, cfg, epoch=1)
    assert s1.units == s2.units and np.array_equal(s1.labels, s2.labels)
    assert s1.positive_sets == s2.positive_sets
    assert st1 == st2 and n1 == n2
    assert np.array_equal(f1, f2)


@pytest.mark.parametrize("merge",
                         [MERGE_NONE, MERGE_DIRECT, MERGE_REACHABLE, MERGE_PROGRESSIVE])
def test_cluster_epoch_state_is_aligned_with_its_units(merge):
    tracklets = _small_dataset()
    cfg = _small_cfg()
    enc = init_encoder(tracklets[0].frames.shape[1], cfg.dim, np.random.default_rng(0))
    state, subtracklets, _, _, _ = cluster_epoch(enc, tracklets, cfg, 1,
                                                 PipelineToggles(merge=merge))
    assert state.units == subtracklets
    assert state.labels.dtype == np.int64 and state.labels.shape == (len(subtracklets),)
    # the unit-keyed view the benchmark checks covers exactly the units, with their labels
    assert state.assignment == dict(zip(subtracklets, state.labels.tolist()))
    assert all(type(y) is int for y in state.assignment.values())
    assert state.check() == []
    if merge == MERGE_NONE:
        assert state.positive_sets == {y: {y} for y in set(state.labels.tolist()) - {OUTLIER}}
        assert state.mode == MODE_DIRECT and state.refined is None


@pytest.mark.parametrize("filter_frames", [True, False])
@pytest.mark.parametrize("do_partition", [True, False])
def test_cluster_epoch_units_align_with_their_frames(filter_frames, do_partition):
    tracklets = _small_dataset()
    cfg = _small_cfg()
    enc = init_encoder(tracklets[0].frames.shape[1], cfg.dim, np.random.default_rng(0))
    toggles = PipelineToggles("t", filter_frames=filter_frames, do_partition=do_partition,
                              merge=MERGE_NONE)
    _, subtracklets, features, unit_frames, filtered = cluster_epoch(enc, tracklets, cfg, 1,
                                                                     toggles)
    by_id = {t.id: t for t in tracklets}
    encoded = {t.id: encode_frames(enc, t.frames) for t in tracklets}
    surviving = {tid: nftp.noise_filter(e, cfg.filter_factor)[0] if filter_frames
                 else np.arange(len(e)) for tid, e in encoded.items()}
    # without partitioning, the survivor count is the stride: one unit spans them all
    stride = cfg.partition_stride if do_partition else None
    # each tracklet's segments in order, numbered from 1, one per pair of its bounds
    assert subtracklets == [
        SubTracklet(tid, s, (a, b)) for tid, keep in surviving.items()
        for s, (a, b) in enumerate(nftp.partition(keep.size, stride or keep.size), 1)]
    assert all(type(v) is int for st in subtracklets for v in st.frame_range)
    kept = sum(keep.size for keep in surviving.values())
    assert filtered == sum(len(t.frames) for t in tracklets) - kept
    assert (filtered > 0) == filter_frames
    assert len(unit_frames) == features.shape[0] == len(subtracklets)
    for st, feature, (raw, idx) in zip(subtracklets, features, unit_frames):
        # no frame copy: the tracklet's own array and an index array into it
        assert raw is by_id[st.parent_id].frames
        assert idx.dtype.kind == "i" and idx.ndim == 1
        a, b = st.frame_range
        frames = surviving[st.parent_id][a : b + 1]
        assert idx.tolist() == frames.tolist()
        mean = encoded[st.parent_id][frames].mean(axis=0)
        assert np.array_equal(feature, mean / np.linalg.norm(mean))


@pytest.mark.parametrize("stride", [1, 3, 16])
def test_unit_features_match_per_unit_oracle(stride):
    # stride 1 makes every unit one frame; 3 and 16 give short and long units
    tracklets = _small_dataset(seed=4)
    cfg = _small_cfg(partition_stride=stride)
    enc = init_encoder(tracklets[0].frames.shape[1], cfg.dim, np.random.default_rng(2))
    encoded = []
    for t in tracklets:  # np.linalg.norm's row norms
        u = np.asarray(t.frames, dtype=np.float64) @ enc.weights
        encoded.append(u / np.linalg.norm(u, axis=-1, keepdims=True))
    which = {id(t.frames): i for i, t in enumerate(tracklets)}
    for filter_frames in (True, False):
        toggles = PipelineToggles("t", filter_frames=filter_frames, merge=MERGE_NONE)
        _, _, features, unit_frames, _ = cluster_epoch(enc, tracklets, cfg, 1, toggles)
        units = [(which[id(raw)], idx) for raw, idx in unit_frames]
        assert stride > 1 or all(idx.size == 1 for _, idx in units)
        assert features.tobytes() == unit_features_by_unit(encoded, units).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 13, 32, 64])
def test_unit_means_equal_the_reshape_oracle(dim, monkeypatch):
    # The frames stand in for their encodings, so each unit sums unnormalized values, whose
    # bits depend on the order of the additions; at dim 1 the sum runs along contiguous
    # memory. 40 tracklets per dim: the odd ones leave a remainder past their last full
    # segment, or have less than one stride, the even ones do not.
    rng = np.random.default_rng(dim)
    stride = int(rng.integers(2, 12))
    full, rest = rng.integers(1, 6, size=40), rng.integers(1, stride, size=40)
    lengths = np.where(np.arange(40) % 2, stride * (full - 1) + rest, stride * full)
    tracklets = [Tracklet(f"t{i}", rng.normal(size=(n, dim))) for i, n in enumerate(lengths)]
    monkeypatch.setattr(trainer, "encode_frames", lambda enc, frames: frames)
    rows, normalized = [], trainer._normalized_rows
    monkeypatch.setattr(trainer, "_normalized_rows",
                        lambda means, name: rows.append(means) or normalized(means, name))
    toggles = PipelineToggles("t", filter_frames=False, merge=MERGE_NONE)
    cluster_epoch(None, tracklets, _small_cfg(partition_stride=stride), 1, toggles)
    oracle = np.concatenate([unit_means_by_reshape(t.frames, stride) for t in tracklets])
    assert rows[0].tobytes() == oracle.tobytes()


def test_a_unit_whose_frames_cancel_is_named():
    # segment 2 of t1 holds x, -x, x, -x, and t2 only x, -x pairs: their mean encodings
    # are exactly zero
    rng = np.random.default_rng(0)
    x = rng.normal(size=4)
    frames = np.concatenate([rng.normal(size=(4, 4)), np.tile([x, -x], (2, 1))])
    tracklets = [Tracklet("t0", rng.normal(size=(8, 4))), Tracklet("t1", frames)]
    cfg = _small_cfg(dim=4, k1=4, k2=2, partition_stride=4)
    enc = init_encoder(4, 4, rng)
    toggles = PipelineToggles("t", filter_frames=False, merge=MERGE_NONE)
    with pytest.raises(ValueError, match="^tracklet 't1' segment 2: the mean frame encoding "
                                         "has a zero or non-finite norm$"):
        cluster_epoch(enc, tracklets, cfg, 1, toggles)
    with pytest.raises(ValueError, match="^tracklet 't2': the mean frame encoding"):
        inference_features(enc, [tracklets[0], Tracklet("t2", np.tile([x, -x], (3, 1)))])


def _report_rows(result):
    return [(r.epoch, r.num_clusters, r.num_outliers, r.mode, repr(r.mean_loss), r.filtered_frames)
            for r in result.reports]


def test_float32_frames_as_read_give_the_outputs_of_float64_frames(tmp_path):
    # storage reads float32 frames and Tracklet keeps them; every consumer
    # widens them to float64 exactly, so nothing computed may change
    write_dataset(_small_dataset(seed=5), tmp_path)
    as_read, _ = read_dataset(tmp_path)
    widened = [Tracklet(t.id, t.frames.astype(np.float64), t.identity, t.camera) for t in as_read]
    assert {t.frames.dtype for t in as_read} == {np.dtype(np.float32)}
    assert {t.frames.dtype for t in widened} == {np.dtype(np.float64)}
    cfg = _small_cfg()
    enc = init_encoder(16, cfg.dim, np.random.default_rng(0))
    a, b = (cluster_epoch(enc, ts, cfg, epoch=1) for ts in (as_read, widened))
    assert np.array_equal(a[0].labels, b[0].labels) and a[0].positive_sets == b[0].positive_sets
    assert a[1] == b[1] and a[4] == b[4]
    assert np.array_equal(a[2], b[2])
    ra, rb = train(as_read, cfg), train(widened, cfg)
    assert np.array_equal(ra.encoder.weights, rb.encoder.weights)
    assert np.array_equal(ra.features, rb.features)
    assert np.array_equal(ra.labels.labels, rb.labels.labels)
    assert ra.labels.positive_sets == rb.labels.positive_sets
    assert _report_rows(ra) == _report_rows(rb) and len(ra.reports) == 2


def test_cluster_epoch_holds_one_tracklets_encodings_at_a_time():
    # 40 long tracklets: all their frame encodings take 20 MB, one tracklet's 0.5 MB
    rng = np.random.default_rng(2)
    tracklets = [Tracklet(f"t{i}", rng.normal(size=(1024, 16)).astype(np.float32))
                 for i in range(40)]
    cfg = _small_cfg(dim=64, k1=20, k2=6, partition_stride=256)
    enc = init_encoder(16, cfg.dim, np.random.default_rng(0))
    tracemalloc.start()
    try:
        features = cluster_epoch(enc, tracklets, cfg, epoch=1)[2]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert features.shape[0] > cfg.k1
    assert peak < 0.5 * 40 * 1024 * cfg.dim * 8


def test_duplicate_tracklet_ids_are_rejected():
    rng = np.random.default_rng(4)
    for lengths in ((80, 40), (40, 80)):
        tracklets = [Tracklet("x", rng.normal(size=(n, 16))) for n in lengths]
        with pytest.raises(ValueError, match="tracklet ids must be unique"):
            train(tracklets, _small_cfg())


def test_cluster_epoch_progressive_mode_switch():
    # the merge mode of each toggle around the switch epoch: only progressive switches
    tracklets = _small_dataset()
    cfg = _small_cfg(merge_switch_epoch=3)
    enc = init_encoder(tracklets[0].frames.shape[1], cfg.dim, np.random.default_rng(0))
    D, R = MODE_DIRECT, MODE_REACHABLE
    table = {MERGE_NONE: (D, D, D), MERGE_DIRECT: (D, D, D), MERGE_REACHABLE: (R, R, R),
             MERGE_PROGRESSIVE: (D, R, R)}
    for merge, modes in table.items():
        for epoch, mode in zip((2, 3, 4), modes):
            state = cluster_epoch(enc, tracklets, cfg, epoch, PipelineToggles(merge=merge))[0]
            assert state.mode == mode, (merge, epoch)
            assert state.check() == []
            if merge == MERGE_NONE:  # no merging: each label its own positive set
                assert np.array_equal(state.positives, np.eye(state.num_clusters, dtype=bool))


def test_cluster_epoch_rejects_epoch_below_one():
    tracklets = _small_dataset()
    cfg = _small_cfg()
    enc = init_encoder(tracklets[0].frames.shape[1], cfg.dim, np.random.default_rng(0))
    for merge in (MERGE_NONE, MERGE_DIRECT, MERGE_REACHABLE, MERGE_PROGRESSIVE):
        for epoch in (0, -1):
            with pytest.raises(ValueError, match="epoch must be >= 1"):
                cluster_epoch(enc, tracklets, cfg, epoch, PipelineToggles(merge=merge))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("change", [{"lr": np.inf}, {"lr": 1e308}, {"weight_decay": 1e308},
                                    {"hard_weight": np.inf}, {"lr": 1e308, "epochs": 1}])
def test_a_diverging_run_is_refused(change):
    # non-finite weights never leave train, nor reach the next epoch's clustering, and
    # the run ends in its one ValueError without a RuntimeWarning on the way
    with pytest.raises(ValueError, match="training diverged: non-finite encoder weights"):
        train(_small_dataset(), _small_cfg(**change))


def test_cluster_epoch_without_partition_gives_one_unit_per_tracklet():
    tracklets = _small_dataset()
    cfg = _small_cfg()
    enc = init_encoder(tracklets[0].frames.shape[1], cfg.dim, np.random.default_rng(0))
    toggles = PipelineToggles(name="whole", filter_frames=False, do_partition=False,
                              merge=MERGE_NONE)
    state, subtracklets, *_ = cluster_epoch(enc, tracklets, cfg, 1, toggles)
    assert len(subtracklets) == len(tracklets)
    assert {st.parent_id for st in subtracklets} == {t.id for t in tracklets}
    assert all(st.segment_index == 1 for st in subtracklets)
    # without merging every cluster is its own singleton positive set
    assert state.check() == []
    assert all(pos == {y} for y, pos in state.positive_sets.items())


def test_train_reports_one_per_epoch_with_losses():
    tracklets = _small_dataset()
    cfg = _small_cfg(epochs=3)
    result = train(tracklets, cfg)
    assert [r.epoch for r in result.reports] == [1, 2, 3]
    for r in result.reports:
        assert r.num_clusters >= 1
        assert np.isfinite(r.mean_loss)
        assert r.seconds >= 0.0


@pytest.mark.parametrize("fixed_k", [None, 2])
def test_epochs_that_label_nothing_train_nothing(fixed_k):
    # min_samples above the unit count: every unit is an outlier in every epoch, so no
    # step runs, and each report still carries the epoch's mode, counts and a NaN loss
    tracklets = _small_dataset()
    cfg = _small_cfg(epochs=3, merge_switch_epoch=2, min_samples=1000)
    rng = np.random.default_rng(cfg.rng_seed)
    init = init_encoder(tracklets[0].frames.shape[1], cfg.dim, rng)
    last, _, features, _, _ = cluster_epoch(init, tracklets, cfg, cfg.epochs)
    units = len(last.labels)
    assert units < cfg.min_samples
    result = train(tracklets, cfg, fixed_k=fixed_k)
    assert [r.epoch for r in result.reports] == [1, 2, 3]
    assert [r.mode for r in result.reports] == [MODE_DIRECT, MODE_REACHABLE, MODE_REACHABLE]
    for r in result.reports:
        assert (r.num_clusters, r.num_outliers) == (0, units)
        assert np.isnan(r.mean_loss)
    assert np.array_equal(result.encoder.weights, init.weights)
    assert result.labels.mode == last.mode == MODE_REACHABLE
    assert result.labels.units == last.units
    assert np.array_equal(result.labels.labels, last.labels)
    assert np.array_equal(result.labels.positives, last.positives)
    assert np.array_equal(result.labels.refined, last.refined)
    assert np.array_equal(result.features, features)


def test_train_baseline_runs_and_differs_from_full():
    tracklets = _small_dataset()
    cfg = _small_cfg()
    full = train(tracklets, cfg)
    base = train(tracklets, cfg, BASELINE)
    assert len(base.reports) == cfg.epochs
    assert not np.array_equal(full.encoder.weights, base.encoder.weights)


def test_training_without_merging_runs_with_and_without_fixed_k():
    tracklets = _small_dataset()
    cfg = _small_cfg(epochs=1)
    toggles = PipelineToggles(name="nftp_infonce", merge=MERGE_NONE)
    assert toggles.loss == "infonce"
    plain = train(tracklets, cfg, toggles)
    assert plain.labels.check() == []
    assert all(pos == {y} for y, pos in plain.labels.positive_sets.items())
    assert np.isfinite(plain.reports[0].mean_loss)
    result = train(tracklets, cfg, toggles, fixed_k=2)
    assert result.labels.check() == []
    assert result.labels.mode == MODE_DIRECT


def test_fixed_k_positive_sets_match_per_class_oracle():
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        rows = rng.normal(size=(n, 4))
        rows[rng.integers(0, n, size=n // 2)] = rows[rng.integers(0, n, size=n // 2)]  # duplicates
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        banks = np.stack((rows, rows))
        state = LabelState([], np.zeros(0, dtype=np.int64), np.eye(n, dtype=bool))
        for k in (1, 2, n, n + 3):
            got = _fixed_k_positive_sets(state, banks, k)
            assert got.positive_sets == fixed_k_positive_sets(rows, k)
            assert got.mode == MODE_DIRECT and got.check() == []


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError):
        train([], _small_cfg())


def test_standard_ablation_rows_cover_structures():
    rows = standard_ablation_rows()
    assert [r.name for r in rows] == [
        "baseline", "nftp_infonce", "nftp_reachable_csc", "nftp_direct_csc", "full",
    ]
    assert rows[0].merge == MERGE_NONE and rows[0].loss == "infonce"
    assert rows[-1].merge == MERGE_PROGRESSIVE and rows[-1].loss == "csc"
    assert {r.merge for r in rows} == {
        MERGE_NONE, MERGE_DIRECT, MERGE_REACHABLE, MERGE_PROGRESSIVE,
    }
    assert all(r.loss == ("infonce" if r.merge == MERGE_NONE else "csc") for r in rows)


def test_standard_ablation_rows_are_structurally_distinct():
    # the loss follows the merge, so two rows with the same structure would
    # train identical weights and measure nothing
    keys = [(r.filter_frames, r.do_partition, r.merge) for r in standard_ablation_rows()]
    assert len(set(keys)) == len(keys)


def test_ablation_matrix_smoke():
    tracklets = _small_dataset(identities=3)
    cfg = _small_cfg(epochs=1, iters_per_epoch=1)
    for row in standard_ablation_rows():
        result = train(tracklets, cfg, row)
        assert len(result.reports) == 1
        assert result.labels is not None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_inference_features_match_per_tracklet_norm_bit_for_bit(dtype):
    for seed in range(4):
        tracklets = [Tracklet(t.id, t.frames.astype(dtype)) for t in _small_dataset(seed=seed)]
        enc = init_encoder(tracklets[0].frames.shape[1], 8, np.random.default_rng(seed))
        expected = []
        for t in tracklets:
            mean = encode_frames(enc, t.frames).mean(axis=0)
            expected.append(mean / np.linalg.norm(mean))
        assert inference_features(enc, tracklets).tobytes() == np.asarray(expected).tobytes()


def test_numpy_facts_the_unit_path_relies_on():
    # cluster_epoch, inference_features and the batch draw keep the per-unit bits only
    # while these hold; a numpy release that breaks one fails here by name
    rng = np.random.default_rng(0)
    for _ in range(50):
        n, length, dim = (int(x) for x in rng.integers(1, [6, 40, 40]))
        x = rng.normal(size=(n, length, dim))
        # one axis-1 reduce equals each block's own axis-0 reduce
        summed = np.add.reduce(x, axis=1)
        for block, row in zip(x, summed):
            assert row.tobytes() == np.add.reduce(block, axis=0).tobytes()
        # the stacked (1, dim) @ (dim, 1) product equals each row @ row
        rows = np.ascontiguousarray(x[:, 0])
        stacked = np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]
        assert stacked.tobytes() == np.array([row @ row for row in rows]).tobytes()
        # array-valued integers draws what one scalar call per high draws, in order
        highs = rng.integers(1, 1000, size=int(rng.integers(1, 30)))
        batch, scalar = np.random.default_rng(n), np.random.default_rng(n)
        assert batch.integers(0, highs).tolist() == [int(scalar.integers(0, h)) for h in highs]
        assert batch.bit_generator.state == scalar.bit_generator.state


def test_inference_features_shape_and_norm():
    tracklets = _small_dataset(identities=2)
    enc = init_encoder(tracklets[0].frames.shape[1], 8, np.random.default_rng(0))
    feats = inference_features(enc, tracklets)
    assert feats.shape == (len(tracklets), 8)
    assert np.allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)


def test_output_hash_set_fires_both_merge_modes(tmp_path, monkeypatch):
    # tools/output_hashes.py shows a merge-stage change keeps outputs identical only
    # if merges fire on its set: every epoch's graph has edges and both modes run
    path = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"
    tool_spec = importlib.util.spec_from_file_location("output_hashes", path)
    tool = importlib.util.module_from_spec(tool_spec)
    tool_spec.loader.exec_module(tool)
    write_synthetic(generate(dataclass_from_json(SyntheticSpec, tool.SPEC, "spec")), tmp_path)
    tracklets, _ = read_dataset(tmp_path)
    graphs, build_graph = [], trainer.build_graph

    def recording_build_graph(labels, parent):
        graphs.append(build_graph(labels, parent))
        return graphs[-1]

    monkeypatch.setattr(trainer, "build_graph", recording_build_graph)
    result = train(tracklets, dataclass_from_json(TrainConfig, tool.CONFIG, "config"))
    assert len(graphs) == tool.CONFIG["epochs"]
    assert all(np.triu(g, 1).sum() >= 2 for g in graphs)
    assert {r.mode for r in result.reports} == {MODE_DIRECT, MODE_REACHABLE}
