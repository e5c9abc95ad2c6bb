import numpy as np
import pytest

from oracles import central_difference_grad, relative_error, softmax_cross_entropy
from subtrack.memory import (
    MemoryBanks,
    combined_loss,
    csc_loss,
    init_memory,
    update_hard_memory,
    update_memory,
)
from subtrack.model import default_config


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _random_banks(rng, n, dim, temperature=0.05, momentum=0.1):
    rows = rng.normal(size=(n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return MemoryBanks(rows, np.flipud(rows).copy(), temperature, momentum)


def test_init_memory_class_means_unit_norm():
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    labels = np.array([1, 2, 2])
    banks = init_memory(feats, labels, 0.05, 0.1)
    assert np.allclose(banks.centroid[0], [1.0, 0.0])
    assert np.allclose(banks.centroid[1], [0.0, 1.0])
    assert np.allclose(banks.hard, banks.centroid)
    assert banks.hard is not banks.centroid


def test_init_memory_rejects_empty_class():
    with pytest.raises(ValueError):
        init_memory(np.eye(3), np.array([1, 1, 3]), 0.05, 0.1)


def test_infonce_softmax_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    banks = _random_banks(rng, 7, 5)
    v = _unit(rng.normal(size=5))
    z = banks.centroid @ v / banks.temperature
    p = np.exp(z - z.max())
    p /= p.sum()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    # the centroid term of the plain contrastive loss is -log p[label - 1]
    cfg = default_config(hard_weight=0.0, centroid_weight=1.0)
    out = combined_loss(v, 3, {3}, banks, cfg)
    assert out.value == pytest.approx(-np.log(p[2]), abs=1e-12)


def test_infonce_rejects_bad_label():
    rng = np.random.default_rng(1)
    banks = _random_banks(rng, 4, 3)
    v = _unit(rng.normal(size=3))
    cfg = default_config()
    with pytest.raises(ValueError):
        combined_loss(v, 0, {0}, banks, cfg)
    with pytest.raises(ValueError):
        combined_loss(v, 5, {5}, banks, cfg)


def _checkable(grad):
    # central differences with step 1e-6 carry ~1e-10 absolute noise; only
    # gradients well above that noise floor give a meaningful relative error
    return np.linalg.norm(grad) >= 1e-3


def test_csc_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 10))
        dim = int(rng.integers(2, 8))
        banks = _random_banks(rng, n, dim, temperature=float(rng.uniform(0.05, 0.5)))
        v = rng.normal(size=dim)
        label = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, n + 1))
        others = [c for c in range(1, n + 1) if c != label]
        rng.shuffle(others)
        pos = {label, *others[: k - 1]}
        out = csc_loss(v, label, pos, banks.centroid, banks.temperature, smoothing=0.1)
        if not _checkable(out.grad):
            continue
        fd = central_difference_grad(
            lambda x: csc_loss(x, label, pos, banks.centroid, banks.temperature, 0.1).value, v
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
        v = rng.normal(size=dim)
        label = int(rng.integers(1, n + 1))
        pos = {label, int(rng.integers(1, n + 1))}
        if rng.random() >= 0.5:
            pos = {label}  # the plain contrastive (InfoNCE) case
        out = combined_loss(v, label, pos, banks, cfg)
        if not _checkable(out.grad):
            continue
        fd = central_difference_grad(
            lambda x: combined_loss(x, label, pos, banks, cfg).value, v
        )
        assert relative_error(out.grad, fd) <= 1e-5
        checked += 1


def test_csc_singleton_positive_set_reduces_to_infonce():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        dim = int(rng.integers(2, 9))
        banks = _random_banks(rng, n, dim, temperature=float(rng.uniform(0.05, 0.5)))
        v = rng.normal(size=dim)
        label = int(rng.integers(1, n + 1))
        smoothing = float(rng.uniform(0.0, 0.5))
        a = csc_loss(v, label, {label}, banks.centroid, banks.temperature, smoothing)
        value, grad = softmax_cross_entropy(v, label, banks.centroid, banks.temperature)
        assert abs(a.value - value) <= 1e-12
        assert np.abs(a.grad - grad).max() <= 1e-12


def test_combined_loss_over_singleton_ignores_smoothing_bit_for_bit():
    # with positives {y} the anchor weight 1 - s + s/1 rounds to exactly 1.0 for
    # every s in [0, 1], so training without merging is InfoNCE whatever the smoothing
    rng = np.random.default_rng(14)
    draws = [0.5, 1.0, 5e-324, 1e-17, 0.1, 0.3, 1.0 - 2**-53, *rng.uniform(0.0, 1.0, size=200)]
    for s in draws:
        assert 1.0 - s + s / 1 == 1.0
        n = int(rng.integers(1, 10))
        dim = int(rng.integers(2, 8))
        banks = _random_banks(rng, n, dim, temperature=float(rng.uniform(0.05, 0.5)))
        v = rng.normal(size=dim)
        label = int(rng.integers(1, n + 1))
        plain = combined_loss(v, label, {label}, banks, default_config(smoothing=0.0))
        smoothed = combined_loss(v, label, {label}, banks, default_config(smoothing=float(s)))
        assert smoothed.value == plain.value
        assert np.array_equal(smoothed.grad, plain.grad)


def test_csc_positive_exclusion_property():
    # perturbing a competing positive's bank row changes its own term only,
    # never the anchor term's denominator
    rng = np.random.default_rng(6)
    banks = _random_banks(rng, 6, 4)
    v = _unit(rng.normal(size=4))
    label, other = 2, 5

    def anchor_term(rows):
        b = MemoryBanks(rows, rows, banks.temperature, banks.momentum)
        full = csc_loss(v, label, {label, other}, b.centroid, b.temperature, 0.1).value
        # subtract the competing positive's term to isolate the anchor term
        z = rows @ v / b.temperature
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
    banks = MemoryBanks(rows, rows, 0.05, 0.1)
    v = _unit(rng.normal(size=dim))
    out = csc_loss(v, 1, {1, 2, 3}, banks.centroid, banks.temperature, 0.1)
    # with identical rows every per-positive term is the same two-block
    # softmax, and the weights sum to 1, so the total equals a single term
    z = rows @ v / banks.temperature
    neg = z[3:]
    logits = np.concatenate(([z[0]], neg))
    m = logits.max()
    term = -(logits[0] - m - np.log(np.exp(logits - m).sum()))
    assert out.value == pytest.approx(term, abs=1e-12)


def test_csc_rejects_label_outside_positive_set():
    rng = np.random.default_rng(8)
    banks = _random_banks(rng, 4, 3)
    with pytest.raises(ValueError):
        csc_loss(np.ones(3), 1, {2, 3}, banks.centroid, banks.temperature, 0.1)


def test_combined_loss_linearity_in_weights():
    rng = np.random.default_rng(9)
    v = rng.normal(size=4)
    banks = _random_banks(rng, 5, 4)
    cfg = default_config()
    full = combined_loss(v, 2, {2}, banks, cfg)
    hard_only = combined_loss(v, 2, {2}, banks, cfg.replace(centroid_weight=0.0))
    cent_only = combined_loss(v, 2, {2}, banks, cfg.replace(hard_weight=0.0))
    assert full.value == pytest.approx(hard_only.value + cent_only.value, abs=1e-12)
    assert np.allclose(full.grad, hard_only.grad + cent_only.grad, atol=1e-12)


def test_update_memory_hand_example():
    banks = MemoryBanks(
        np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), 0.05, momentum=0.1
    )
    updated = update_memory(banks, [(np.array([0.0, 1.0]), 1)])
    expected = _unit([0.1, 0.9])
    assert updated.centroid[0] == pytest.approx(expected, abs=1e-4)
    assert updated.centroid[0][0] == pytest.approx(0.1104, abs=1e-4)
    assert updated.centroid[0][1] == pytest.approx(0.9939, abs=1e-4)
    # hard bank untouched by the centroid update
    assert np.array_equal(updated.hard, banks.hard)


def test_update_memory_fixed_point_and_alpha_one():
    rng = np.random.default_rng(10)
    banks = _random_banks(rng, 3, 4, momentum=0.1)
    same = update_memory(banks, [(banks.centroid[1].copy(), 2)])
    assert np.allclose(same.centroid[1], banks.centroid[1], atol=1e-12)

    frozen = MemoryBanks(banks.centroid, banks.hard, banks.temperature, momentum=1.0)
    out = update_memory(frozen, [(rng.normal(size=4), 1), (rng.normal(size=4), 3)])
    assert np.array_equal(out.centroid, frozen.centroid)


def test_update_memory_batch_mean_and_untouched_rows():
    rng = np.random.default_rng(11)
    banks = _random_banks(rng, 3, 4, momentum=0.3)
    a, b = rng.normal(size=4), rng.normal(size=4)
    out = update_memory(banks, [(a, 2), (b, 2)])
    row = 0.3 * banks.centroid[1] + 0.7 * (a + b) / 2
    assert np.allclose(out.centroid[1], row / np.linalg.norm(row), atol=1e-12)
    assert np.array_equal(out.centroid[0], banks.centroid[0])
    assert np.array_equal(out.centroid[2], banks.centroid[2])


def test_update_memory_rows_stay_unit_norm():
    rng = np.random.default_rng(12)
    banks = _random_banks(rng, 4, 6)
    for _ in range(20):
        batch = [(rng.normal(size=6), int(rng.integers(1, 5))) for _ in range(8)]
        banks = update_memory(banks, batch)
        banks = update_hard_memory(banks, batch)
        assert np.allclose(np.linalg.norm(banks.centroid, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(banks.hard, axis=1), 1.0, atol=1e-12)


def test_update_hard_memory_selects_least_similar():
    banks = MemoryBanks(
        np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), 0.05, momentum=0.5
    )
    close = np.array([0.9, 0.1])
    far = np.array([-0.2, 1.0])
    out = update_hard_memory(banks, [(close, 1), (far, 1)])
    row = 0.5 * np.array([1.0, 0.0]) + 0.5 * far
    assert np.allclose(out.hard[0], row / np.linalg.norm(row), atol=1e-12)
    assert np.array_equal(out.centroid, banks.centroid)


def test_update_hard_memory_tie_breaks_to_earliest():
    banks = MemoryBanks(
        np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), 0.05, momentum=0.5
    )
    a = np.array([0.0, 1.0])
    b = np.array([0.0, -1.0]) * -1.0  # same cosine similarity (0.0) as a
    out = update_hard_memory(banks, [(a, 1), (b, 1)])
    row = 0.5 * np.array([1.0, 0.0]) + 0.5 * a
    assert np.allclose(out.hard[0], row / np.linalg.norm(row), atol=1e-12)


def test_update_rejects_empty_batch():
    rng = np.random.default_rng(13)
    banks = _random_banks(rng, 2, 3)
    with pytest.raises(ValueError):
        update_memory(banks, [])
    with pytest.raises(ValueError):
        update_hard_memory(banks, [])
