import tracemalloc

import numpy as np
import pytest

from oracles import (
    central_difference_grad,
    class_means_by_class,
    csc_loss_per_sample,
    positive_mask,
    positive_weights_per_class,
    relative_error,
    softmax_cross_entropy,
    update_centroid_per_sample,
    update_hard_memory_per_sample,
)
from subtrack.memory import (
    MemoryBanks,
    batch_weights,
    combined_loss,
    csc_loss,
    init_memory,
    update_banks,
)
from subtrack.model import default_config


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _random_banks(rng, n, dim):
    rows = rng.normal(size=(n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return MemoryBanks(rows, np.flipud(rows).copy())


def _positives(n, **sets):
    """Positive mask with {y} for every class except the ones given as c<y>=set."""
    psets = {y: {y} for y in range(1, n + 1)}
    psets.update({int(k[1:]): v for k, v in sets.items()})
    return positive_mask(psets, n)


def _csc(V, labels, positives, smoothing, rows, temperature):
    """csc_loss of a batch under the weights that batch_weights gives its labels."""
    return csc_loss(V, *batch_weights(positives, labels, smoothing), rows, temperature)


def _one(fn, v, label, *args):
    """A batched loss on the one-row batch holding v."""
    out = fn(np.asarray(v, dtype=np.float64)[None, :], np.array([label]), *args)
    return float(out.value[0]), out.grad[0]


def test_init_memory_class_means_unit_norm():
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    labels = np.array([1, 2, 2])
    banks = init_memory(feats, labels)
    assert np.allclose(banks.centroid[0], [1.0, 0.0])
    assert np.allclose(banks.centroid[1], [0.0, 1.0])
    assert np.allclose(banks.hard, banks.centroid)
    assert banks.hard is not banks.centroid


def test_init_memory_rejects_empty_class():
    with pytest.raises(ValueError):
        init_memory(np.eye(3), np.array([1, 1, 3]))


def test_init_memory_matches_per_class_oracle():
    # np.add.at adds each class's rows in row order from 0.0, as mean(axis=0) does
    rng = np.random.default_rng(9)
    for _ in range(200):
        rows, dim = int(rng.integers(1, 60)), int(rng.integers(1, 9))
        classes = int(rng.integers(1, rows + 1))
        labels = rng.integers(0, classes + 1, rows)  # 0 is OUTLIER
        labels[rng.permutation(rows)[:classes]] = np.arange(1, classes + 1)
        feats = rng.normal(size=(rows, dim))
        feats[rng.integers(0, rows, rows // 3)] = feats[rng.integers(0, rows, rows // 3)]
        banks = init_memory(feats, labels)
        assert banks.centroid.tobytes() == class_means_by_class(feats, labels).tobytes()
    with pytest.raises(ValueError, match="class 2 has no members"):
        init_memory(np.eye(4), np.array([1, 3, 0, 4]))


def test_infonce_softmax_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    banks = _random_banks(rng, 7, 5)
    v = _unit(rng.normal(size=5))
    cfg = default_config(hard_weight=0.0, centroid_weight=1.0)
    z = banks.centroid @ v / cfg.temperature
    p = np.exp(z - z.max())
    p /= p.sum()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    # the centroid term of the plain contrastive loss is -log p[label - 1]
    value, _ = _one(combined_loss, v, 3, _positives(7), banks, cfg)
    assert value == pytest.approx(-np.log(p[2]), abs=1e-12)


def test_infonce_rejects_bad_label():
    rng = np.random.default_rng(1)
    banks = _random_banks(rng, 4, 3)
    v = _unit(rng.normal(size=3))
    cfg = default_config()
    for label in (0, 5):
        with pytest.raises(ValueError, match="label outside"):
            _one(combined_loss, v, label, _positives(4), banks, cfg)


def _checkable(grad):
    # central differences with step 1e-6 carry ~1e-10 absolute noise; only
    # gradients well above that noise floor give a meaningful relative error
    return np.linalg.norm(grad) >= 1e-3


def _random_psets(rng, n, max_k):
    """A positive set of 1..max_k classes, the class itself included, per class."""
    psets = {}
    for y in range(1, n + 1):
        others = [c for c in range(1, n + 1) if c != y]
        rng.shuffle(others)
        psets[y] = {y, *others[: int(rng.integers(0, min(max_k, n)))]}
    return psets


def test_csc_gradient_matches_finite_differences():
    # row b's value depends on V[b] only, so the gradient of the summed
    # values is the stacked per-row gradients
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 10))
        dim = int(rng.integers(2, 8))
        temperature = float(rng.uniform(0.05, 0.5))
        banks = _random_banks(rng, n, dim)
        positives = positive_mask(_random_psets(rng, n, n), n)
        V = rng.normal(size=(int(rng.integers(1, 4)), dim))
        labels = rng.integers(1, n + 1, size=V.shape[0])
        out = _csc(V, labels, positives, 0.1, banks.centroid, temperature)
        if not _checkable(out.grad):
            continue
        fd = central_difference_grad(
            lambda x: _csc(x, labels, positives, 0.1, banks.centroid, temperature).value.sum(), V
        )
        assert relative_error(out.grad, fd) <= 1e-5
        checked += 1


def test_combined_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    cfg = default_config()
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 8))
        dim = int(rng.integers(2, 6))
        banks = _random_banks(rng, n, dim)
        # max_k 1 is the plain contrastive (InfoNCE) case
        positives = positive_mask(_random_psets(rng, n, int(rng.integers(1, 3))), n)
        V = rng.normal(size=(int(rng.integers(1, 4)), dim))
        labels = rng.integers(1, n + 1, size=V.shape[0])
        out = combined_loss(V, labels, positives, banks, cfg)
        if not _checkable(out.grad):
            continue
        fd = central_difference_grad(
            lambda x: combined_loss(x, labels, positives, banks, cfg).value.sum(), V
        )
        assert relative_error(out.grad, fd) <= 1e-5
        checked += 1


def test_csc_singleton_positive_set_reduces_to_infonce():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        dim = int(rng.integers(2, 9))
        temperature = float(rng.uniform(0.05, 0.5))
        banks = _random_banks(rng, n, dim)
        V = rng.normal(size=(4, dim))
        labels = rng.integers(1, n + 1, size=4)
        smoothing = float(rng.uniform(0.0, 0.5))
        out = _csc(V, labels, _positives(n), smoothing, banks.centroid, temperature)
        for b in range(4):
            value, grad = softmax_cross_entropy(V[b], labels[b], banks.centroid, temperature)
            assert abs(out.value[b] - value) <= 1e-12
            assert np.abs(out.grad[b] - grad).max() <= 1e-12


def test_combined_loss_over_singleton_ignores_smoothing_bit_for_bit():
    # with positives {y} the anchor weight 1 - s + s/1 rounds to exactly 1.0 for
    # every s in [0, 1], so training without merging is InfoNCE whatever the smoothing
    rng = np.random.default_rng(14)
    draws = [0.5, 1.0, 5e-324, 1e-17, 0.1, 0.3, 1.0 - 2**-53, *rng.uniform(0.0, 1.0, size=200)]
    for s in draws:
        assert 1.0 - s + s / 1 == 1.0
        n = int(rng.integers(1, 10))
        dim = int(rng.integers(2, 8))
        temperature = float(rng.uniform(0.05, 0.5))
        banks = _random_banks(rng, n, dim)
        V = rng.normal(size=(3, dim))
        labels = rng.integers(1, n + 1, size=3)
        plain = combined_loss(V, labels, _positives(n), banks,
                              default_config(smoothing=0.0, temperature=temperature))
        smoothed = combined_loss(V, labels, _positives(n), banks,
                                 default_config(smoothing=float(s), temperature=temperature))
        assert np.array_equal(smoothed.value, plain.value)
        assert np.array_equal(smoothed.grad, plain.grad)


def test_csc_positive_exclusion_property():
    # perturbing a competing positive's bank row changes its own term only,
    # never the anchor term's denominator
    rng = np.random.default_rng(6)
    banks = _random_banks(rng, 6, 4)
    v = _unit(rng.normal(size=4))
    label, other = 2, 5
    positives = _positives(6, c2={label, other})

    def anchor_term(rows):
        full, _ = _one(_csc, v, label, positives, 0.1, rows, 0.05)
        # subtract the competing positive's term to isolate the anchor term
        z = rows @ v / 0.05
        neg = np.delete(z, [label - 1, other - 1])
        s_other = 0.1 / 2
        logits = np.concatenate(([z[other - 1]], neg))
        m = logits.max()
        other_term = -s_other * (logits[0] - m - np.log(np.exp(logits - m).sum()))
        return full - other_term

    base = anchor_term(banks.centroid)
    rows = banks.centroid.copy()
    rows[other - 1] = _unit(rng.normal(size=4))
    assert anchor_term(rows) == pytest.approx(base, abs=1e-12)


def test_csc_weights_sum_to_one():
    # total loss weight equals 1: scaling check via a uniform-logit bank where
    # every term is identical, so value = single term value
    rng = np.random.default_rng(7)
    dim = 5
    row = _unit(rng.normal(size=dim))
    rows = np.tile(row, (4, 1))
    v = _unit(rng.normal(size=dim))
    value, _ = _one(_csc, v, 1, _positives(4, c1={1, 2, 3}), 0.1, rows, 0.05)
    # with identical rows every per-positive term is the same two-block
    # softmax, and the weights sum to 1, so the total equals a single term
    z = rows @ v / 0.05
    neg = z[3:]
    logits = np.concatenate(([z[0]], neg))
    m = logits.max()
    term = -(logits[0] - m - np.log(np.exp(logits - m).sum()))
    assert value == pytest.approx(term, abs=1e-12)
    # every batch row carries weight 1 in total
    for smoothing in (0.0, 0.1, 1.0):
        psets = _random_psets(rng, 9, 5)
        labels = rng.permutation(np.arange(1, 10))
        s, pos = batch_weights(positive_mask(psets, 9), labels, smoothing)
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-15)
        assert all(set(np.flatnonzero(pos[b]) + 1) == psets[y] for b, y in enumerate(labels))


def test_csc_rejects_label_outside_positive_set():
    with pytest.raises(ValueError, match="anchor"):
        batch_weights(_positives(4, c1={2, 3}), np.array([1]), 0.1)
    # the check covers every class, not only the ones a batch draws
    missing = positive_mask({1: {1}, 2: {2}}, 3)  # class 3 has no positive set
    with pytest.raises(ValueError, match="anchor"):
        batch_weights(missing, np.array([1]), 0.1)
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError, match="anchor"):
        combined_loss(rng.normal(size=(1, 3)), np.array([1]), missing, _random_banks(rng, 3, 3),
                      default_config())


def test_batch_weights_match_per_class_oracle():
    # n = 0, all-singleton sets, repeated labels and smoothing 0, 1 and the
    # smallest subnormal all occur
    rng = np.random.default_rng(18)
    for trial in range(200):
        n = 0 if trial == 0 else int(rng.integers(1, 30))
        psets = _random_psets(rng, n, 1 if trial % 4 == 1 else int(rng.integers(1, n + 2)))
        labels = np.concatenate((np.arange(1, n + 1), rng.integers(1, n + 1, size=min(n, 8))))
        rng.shuffle(labels)
        for smoothing in (0.0, 0.1, 1.0, 5e-324, float(rng.uniform(0.0, 1.0))):
            weights, mask = positive_weights_per_class(psets, n, smoothing)
            s, pos = batch_weights(positive_mask(psets, n), labels, smoothing)
            assert s.shape == pos.shape == (labels.size, n)
            assert np.array_equal(pos, mask[labels - 1])
            assert np.array_equal(s, weights[labels - 1])


def test_combined_loss_linearity_in_weights():
    rng = np.random.default_rng(9)
    V = rng.normal(size=(3, 4))
    labels = np.array([2, 5, 2])
    banks = _random_banks(rng, 5, 4)
    cfg = default_config()
    positives = _positives(5, c2={2, 4})
    full = combined_loss(V, labels, positives, banks, cfg)
    hard_only = combined_loss(V, labels, positives, banks, cfg.replace(centroid_weight=0.0))
    cent_only = combined_loss(V, labels, positives, banks, cfg.replace(hard_weight=0.0))
    assert np.allclose(full.value, hard_only.value + cent_only.value, atol=1e-12)
    assert np.allclose(full.grad, hard_only.grad + cent_only.grad, atol=1e-12)


def test_combined_loss_holds_no_square_float_array():
    # the weights cover only the batch's B rows, so a step holds a few (B, n)
    # arrays: well below one (n, n) float64 table
    n, batch_size, dim = 2000, 32, 16
    rng = np.random.default_rng(19)
    positives = np.eye(n, dtype=bool)
    positives[rng.integers(0, n, size=4 * n), rng.integers(0, n, size=4 * n)] = True
    banks = _random_banks(rng, n, dim)
    V = rng.normal(size=(batch_size, dim))
    labels = rng.integers(1, n + 1, size=batch_size)
    tracemalloc.start()
    try:
        out = combined_loss(V, labels, positives, banks, default_config())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.value.shape == (batch_size,) and np.isfinite(out.value).all()
    assert peak <= 0.25 * 8 * n * n


def _row_error(batched, oracle, scale):
    """Error relative to max(|oracle|, scale)."""
    return np.linalg.norm(np.subtract(batched, oracle)) / max(np.linalg.norm(oracle), scale)


def test_batched_csc_matches_per_sample_oracle():
    # the oracle computes log(1 + tiny) and 1 - p, which lose digits where a
    # row's loss is far below its logits (at a loss of 1e-5 its own error is
    # 1e-11 relative), so each row is compared relative to max(|oracle|, 1/T):
    # logits and gradient entries are of size |v|/T and 1/T
    rng = np.random.default_rng(15)
    batch_size = 32
    worst = 0.0
    for n in range(1, 71):
        dim = int(rng.integers(2, 9))
        temperature = float(rng.uniform(0.05, 0.5))
        banks = _random_banks(rng, n, dim)
        psets = _random_psets(rng, n, 5)
        full = int(rng.integers(1, n + 1))
        psets[full] = set(range(1, n + 1))  # no negatives: the row pays 0
        labels = rng.integers(1, n + 1, size=batch_size)
        labels[0] = full
        V = rng.normal(size=(batch_size, dim))
        for smoothing in (0.0, 1.0, float(rng.uniform(0.0, 1.0))):
            out = _csc(V, labels, positive_mask(psets, n), smoothing, banks.hard, temperature)
            assert out.value.shape == (batch_size,) and out.grad.shape == (batch_size, dim)
            assert out.value[0] == 0.0 and not out.grad[0].any()
            for b in range(batch_size):
                value, grad = csc_loss_per_sample(V[b], labels[b], psets[labels[b]], banks.hard,
                                                  temperature, smoothing)
                scale = 1.0 / temperature
                worst = max(worst, _row_error(out.value[b], value, scale),
                            _row_error(out.grad[b], grad, scale))
    assert worst <= 1e-12


def test_update_banks_hand_example():
    banks = MemoryBanks(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    updated = update_banks(banks, np.array([[0.0, 1.0]]), np.array([1]), 0.1)
    expected = _unit([0.1, 0.9])
    assert updated.centroid[0] == pytest.approx(expected, abs=1e-4)
    assert updated.centroid[0][0] == pytest.approx(0.1104, abs=1e-4)
    assert updated.centroid[0][1] == pytest.approx(0.9939, abs=1e-4)
    # one sample is both the class's batch mean and its hardest sample
    assert np.array_equal(updated.hard, updated.centroid)


def test_update_banks_fixed_point_and_alpha_one():
    rng = np.random.default_rng(10)
    banks = _random_banks(rng, 3, 4)
    same = update_banks(banks, banks.centroid[1:2].copy(), np.array([2]), 0.1)
    assert np.allclose(same.centroid[1], banks.centroid[1], atol=1e-12)

    out = update_banks(banks, rng.normal(size=(2, 4)), np.array([1, 3]), 1.0)
    assert np.array_equal(out.centroid, banks.centroid)
    assert np.array_equal(out.hard, banks.hard)


def test_update_banks_batch_mean_and_untouched_rows():
    rng = np.random.default_rng(11)
    banks = _random_banks(rng, 3, 4)
    a, b = rng.normal(size=4), rng.normal(size=4)
    out = update_banks(banks, np.array([a, b]), np.array([2, 2]), 0.3)
    row = 0.3 * banks.centroid[1] + 0.7 * (a + b) / 2
    assert np.allclose(out.centroid[1], row / np.linalg.norm(row), atol=1e-12)
    assert np.array_equal(out.centroid[0], banks.centroid[0])
    assert np.array_equal(out.centroid[2], banks.centroid[2])


def test_update_banks_rows_stay_unit_norm():
    rng = np.random.default_rng(12)
    banks = _random_banks(rng, 4, 6)
    for _ in range(20):
        batch = [(rng.normal(size=6), int(rng.integers(1, 5))) for _ in range(8)]
        banks = update_banks(banks, np.array([v for v, _ in batch]), np.array([y for _, y in batch]),
                             0.1)
        assert np.allclose(np.linalg.norm(banks.centroid, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(banks.hard, axis=1), 1.0, atol=1e-12)


def test_update_hard_memory_selects_least_similar():
    banks = MemoryBanks(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    close = np.array([0.9, 0.1])
    far = np.array([-0.2, 1.0])
    out = update_banks(banks, np.array([close, far]), np.array([1, 1]), 0.5)
    row = 0.5 * np.array([1.0, 0.0]) + 0.5 * far
    assert np.allclose(out.hard[0], row / np.linalg.norm(row), atol=1e-12)
    # the centroid row moves toward the batch mean instead
    row = 0.5 * np.array([1.0, 0.0]) + 0.5 * (close + far) / 2
    assert np.allclose(out.centroid[0], row / np.linalg.norm(row), atol=1e-12)


def test_update_hard_memory_tie_breaks_to_earliest():
    banks = MemoryBanks(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    a = np.array([0.6, 0.8])
    b = np.array([0.6, -0.8])  # the same cosine similarity (0.6) as a, exactly
    for batch, first in ((np.array([a, b]), a), (np.array([b, a]), b)):
        out = update_banks(banks, batch, np.array([1, 1]), 0.5)
        row = 0.5 * np.array([1.0, 0.0]) + 0.5 * first
        assert np.allclose(out.hard[0], row / np.linalg.norm(row), atol=1e-12)


def test_batched_updates_match_per_sample_oracle():
    rng = np.random.default_rng(16)
    for trial in range(200):
        n = int(rng.integers(1, 12))
        dim = int(rng.integers(2, 7))
        momentum = float(rng.uniform(0.0, 1.0)) if trial % 10 else 0.0
        banks = _random_banks(rng, n, dim)
        size = int(rng.integers(1, 33))
        V = rng.normal(size=(size, dim))
        labels = rng.integers(1, n + 1, size=size)
        if size >= 3:
            # an exact hard-bank tie: with an axis as the class's hard row,
            # flipping a sample's other coordinates keeps its cosine bit for bit
            hard_rows = banks.hard.copy()
            hard_rows[labels[0] - 1] = np.eye(dim)[0]
            banks = MemoryBanks(banks.centroid, hard_rows)
            V[2] = -V[0]
            V[2, 0] = V[0, 0]
            labels[2] = labels[0]
        batch = list(zip(V, labels))
        centroid = update_centroid_per_sample(banks.centroid, batch, momentum)
        hard = update_hard_memory_per_sample(banks.hard, batch, momentum)
        both = update_banks(banks, V, labels, momentum)
        for got, want in ((both.centroid, centroid), (both.hard, hard)):
            assert np.abs(got - want).max() <= 1e-15


def test_update_rejects_empty_batch():
    rng = np.random.default_rng(13)
    banks = _random_banks(rng, 2, 3)
    with pytest.raises(ValueError, match="empty batch"):
        update_banks(banks, np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 0.1)
