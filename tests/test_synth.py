import dataclasses
import re

import numpy as np
import pytest

from subtrack.synth import SyntheticSpec, _sample_prototypes, generate, oracle_noise_indices


def _spec(**kw):
    base = dict(
        num_identities=4,
        num_cameras=2,
        tracklets_per_identity=2,
        tracklet_length_range=(40, 60),
        raw_dim=24,
        splice_len_range=(8, 12),
        seed=7,
    )
    base.update(kw)
    return SyntheticSpec(**base)


def test_determinism_bitwise():
    a_tracklets, a_log = generate(_spec(splice_rate=0.5))
    b_tracklets, b_log = generate(_spec(splice_rate=0.5))
    assert len(a_tracklets) == len(b_tracklets)
    for ta, tb in zip(a_tracklets, b_tracklets):
        assert ta.id == tb.id
        assert np.array_equal(ta.frames, tb.frames)
    assert a_log == b_log


def test_zero_splice_rate_empty_log():
    assert generate(_spec(splice_rate=0.0))[1] == {}


def test_full_splice_rate_every_tracklet_spliced():
    tracklets, splice_log = generate(_spec(num_identities=2, splice_rate=1.0))
    gt = {t.id: t.identity for t in tracklets}
    assert set(splice_log) == set(gt)
    for tid, recs in splice_log.items():
        assert len(recs) == 1
        assert recs[0].source_identity != gt[tid]


def test_splice_ranges_inside_tracklet():
    tracklets, splice_log = generate(_spec(splice_rate=1.0, num_identities=6, seed=11))
    for t in tracklets:
        for rec in splice_log[t.id]:
            assert 0 <= rec.start <= rec.end < len(t)


def test_all_tracklets_have_identity_and_camera():
    tracklets, _ = generate(_spec())
    assert all(t.identity is not None and t.camera is not None for t in tracklets)


def test_oracle_noise_indices():
    tracklets, splice_log = generate(_spec(splice_rate=0.7, seed=13))
    total = 0
    for t in tracklets:
        idx = oracle_noise_indices(splice_log, t.id)
        recs = splice_log.get(t.id, [])
        expected = set()
        for r in recs:
            expected |= set(range(r.start, r.end + 1))
        assert idx == expected
        total += len(idx)
    # union cardinality equals the summed splice lengths (re-counted)
    assert total == sum(
        r.end - r.start + 1 for recs in splice_log.values() for r in recs
    )
    # the log names spliced tracklets only; storage refuses a record for an unknown id
    assert oracle_noise_indices(splice_log, "nope") == set()


def test_noise_free_frames_identical_per_identity_camera():
    tracklets, _ = generate(_spec(jitter_scale=0.0, splice_rate=0.0))
    seen = {}
    for t in tracklets:
        key = (t.identity, t.camera)
        probe = t.frames[0]
        assert np.array_equal(t.frames, np.tile(probe, (len(t), 1)))
        if key in seen:
            assert np.array_equal(seen[key], probe)
        else:
            seen[key] = probe


def test_identity_separation_raises_mean_angle():
    def mean_angle(sep, seed):
        # generate draws its prototypes first from the spec's seeded generator
        protos = _sample_prototypes(np.random.default_rng(seed), 6, 24, sep)
        cos = protos @ protos.T
        iu = np.triu_indices(len(protos), k=1)
        return np.arccos(np.clip(cos[iu], -1, 1)).mean()

    for seed in range(5):
        angles = [mean_angle(sep, seed) for sep in (0.2, 0.8, 1.4)]
        assert angles[0] < angles[1] < angles[2]


def test_rejects_dominating_splice():
    with pytest.raises(ValueError, match="splice_len_range"):
        _spec(splice_rate=0.5, tracklet_length_range=(10, 20), splice_len_range=(10, 12))


def test_rejects_bad_counts():
    with pytest.raises(ValueError):
        _spec(num_identities=0)
    with pytest.raises(ValueError):
        _spec(splice_rate=1.5)


def test_a_spec_is_checked_when_it_is_built():
    # every broken rule is named, in Python as from a spec file, replace included
    rules = "invalid synthetic spec: num_identities >= 1; splice_rate in [0, 1]"
    with pytest.raises(ValueError, match=f"^{re.escape(rules)}$"):
        _spec(num_identities=0, splice_rate=1.5)
    with pytest.raises(ValueError, match=re.escape("raw_dim >= 2")):
        dataclasses.replace(_spec(), raw_dim=1)


def test_generate_uses_the_prototypes_that_its_seed_draws():
    spec = _spec(jitter_scale=0.0, camera_shift_scale=0.0, splice_rate=0.0)
    protos = _sample_prototypes(np.random.default_rng(spec.seed), 4, 24, spec.identity_separation)
    for t in generate(spec)[0]:
        assert np.allclose(t.frames, protos[t.identity], rtol=0, atol=1e-15)
