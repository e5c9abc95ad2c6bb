"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Every expected value is either computed by an independent oracle in
tests/oracles.py or recorded from the committed pilot fixture; none is
hand-authored.
"""

import json
import time
from pathlib import Path

import numpy as np

from oracles import (
    adjacency,
    average_precision_enum,
    bfs_components,
    central_difference_grad,
    component_mask,
    dbscan_closure,
    partition_of,
    positive_mask,
    relative_error,
    softmax_cross_entropy,
)
from subtrack import kernels
from subtrack.cli import main as cli_main
from subtrack.evaluation import map_cmc
from subtrack.experiment import compare_full_vs_baseline
from subtrack.memory import (
    MemoryBanks,
    batch_weights,
    combined_loss,
    csc_loss,
    update_banks,
)
from subtrack.merging import merge_positives
from subtrack.model import default_config
from subtrack.nftp import noise_filter, partition
from subtrack.storage import load_json
from subtrack.trainer import Encoder, _backprop_batch, _embed_batch

FIXTURES = Path(__file__).parent / "fixtures"


def _verdict(capsys, number, description, ok):
    with capsys.disabled():
        print(f"\nacceptance criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_dbscan_oracle(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 201))
        pts = rng.uniform(size=(n, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        eps = float(rng.uniform(0.02, 0.5))
        min_samples = int(rng.integers(2, 7))
        labels = kernels.dbscan_pairs(n, *np.nonzero(np.triu(d <= eps, 1)), min_samples)
        if partition_of(labels) != dbscan_closure(d, eps, min_samples):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 30.0
    _verdict(capsys, 1,
             f"density clustering matches closure oracle on 200 instances in {elapsed:.1f}s (limit 30s)",
             ok)


def test_criterion_02_connectivity_oracle(capsys):
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 501))
        nodes = frozenset(range(1, n + 1))
        edges = set()
        for _ in range(int(rng.integers(0, 2 * n))):
            a, b = rng.integers(1, n + 1, size=2)
            if a != b:
                edges.add((min(int(a), int(b)), max(int(a), int(b))))
        g = adjacency(n, edges)
        reach = merge_positives(g, reachable=True)[0]
        if not np.array_equal(reach, component_mask(bfs_components(nodes, edges), n)):
            ok = False
            break
        direct = merge_positives(g, reachable=False)[0]
        if not np.all(direct <= reach):
            ok = False
            break
    _verdict(capsys, 2,
             "reachable positive sets equal BFS components on 200 graphs; direct subset of reachable",
             ok)


def _unit_rows(rng, n, dim):
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _multi_label_sets(rng, n):
    return {y: {y, int(rng.integers(1, n + 1))} for y in range(1, n + 1)}


def _csc(V, labels, positives, smoothing, rows, temperature):
    return csc_loss(V, *batch_weights(positives, labels, smoothing), rows, temperature)


def test_criterion_03_gradient_suite(capsys):
    # each batched loss is checked on a batch of several rows; row b's value
    # depends on V[b] only, so the gradient of the summed values stacks the rows'
    rng = np.random.default_rng(103)
    cfg = default_config()
    worst_loss = 0.0
    worst_e2e = 0.0
    checked_loss = checked_e2e = 0
    while checked_loss < 100:
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 7))
        rows = _unit_rows(rng, n, dim)
        t = float(rng.uniform(0.05, 0.5))
        banks, step_cfg = MemoryBanks(rows, np.flipud(rows).copy()), cfg.replace(temperature=t)
        V = rng.normal(size=(int(rng.integers(1, 4)), dim))
        labels = rng.integers(1, n + 1, size=V.shape[0])
        single = positive_mask({y: {y} for y in range(1, n + 1)}, n)
        multi = positive_mask(_multi_label_sets(rng, n), n)
        smoothed = positive_mask(_multi_label_sets(rng, n), n)
        for out, fn in (
            (combined_loss(V, labels, single, banks, step_cfg),
             lambda x: combined_loss(x, labels, single, banks, step_cfg).value.sum()),
            (_csc(V, labels, smoothed, 0.1, banks.hard, t),
             lambda x: _csc(x, labels, smoothed, 0.1, banks.hard, t).value.sum()),
            (combined_loss(V, labels, multi, banks, step_cfg),
             lambda x: combined_loss(x, labels, multi, banks, step_cfg).value.sum()),
        ):
            if np.linalg.norm(out.grad) < 1e-3:
                continue
            worst_loss = max(worst_loss, relative_error(out.grad, central_difference_grad(fn, V.copy())))
        checked_loss += 1
    while checked_e2e < 100:
        # weights -> batched embed -> batched loss -> batch mean, as in one training step
        raw_dim = int(rng.integers(2, 8))
        dim = int(rng.integers(2, 6))
        X = rng.normal(size=(int(rng.integers(2, 5)), int(rng.integers(1, 6)), raw_dim))
        n = int(rng.integers(2, 6))
        rows = _unit_rows(rng, n, dim)
        banks, step_cfg = MemoryBanks(rows, np.flipud(rows).copy()), cfg.replace(temperature=0.2)
        labels = rng.integers(1, n + 1, size=X.shape[0])
        positives = positive_mask(_multi_label_sets(rng, n), n)
        weights = rng.normal(size=(raw_dim, dim)) / np.sqrt(raw_dim)

        def loss_of(w):
            Ve, _ = _embed_batch(Encoder(w), X)
            return combined_loss(Ve, labels, positives, banks, step_cfg).value.mean()

        Ve, cache = _embed_batch(Encoder(weights), X)
        out = combined_loss(Ve, labels, positives, banks, step_cfg)
        grad_w = _backprop_batch(out.grad / X.shape[0], cache)
        if np.linalg.norm(grad_w) < 1e-3:
            continue
        worst_e2e = max(worst_e2e, relative_error(grad_w, central_difference_grad(loss_of, weights.copy())))
        checked_e2e += 1
    ok = worst_loss <= 1e-5 and worst_e2e <= 1e-4
    _verdict(capsys, 3,
             f"analytic gradients vs finite differences: losses {worst_loss:.2e} (<=1e-5), "
             f"end-to-end {worst_e2e:.2e} (<=1e-4)", ok)


def test_criterion_04_csc_reduction(capsys):
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        dim = int(rng.integers(2, 9))
        rows = _unit_rows(rng, n, dim)
        temperature = float(rng.uniform(0.05, 0.5))
        V = rng.normal(size=(4, dim))
        labels = rng.integers(1, n + 1, size=4)
        smoothing = float(rng.uniform(0.0, 0.5))
        out = _csc(V, labels, positive_mask({y: {y} for y in range(1, n + 1)}, n), smoothing, rows,
                   temperature)
        for b in range(4):
            value, grad = softmax_cross_entropy(V[b], labels[b], rows, temperature)
            worst = max(worst, abs(out.value[b] - value), float(np.abs(out.grad[b] - grad).max()))
    ok = worst <= 1e-12
    _verdict(capsys, 4,
             f"singleton-positive smoothed loss equals plain contrastive loss ({worst:.2e} <= 1e-12)",
             ok)


def test_criterion_05_noise_filter(capsys):
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(100):
        frames = rng.normal(size=(int(rng.integers(3, 50)), 6))
        factors = sorted(rng.uniform(0.05, 3.0, size=4))
        removed = [set(range(len(frames))) - set(noise_filter(frames, f)[0].tolist())
                   for f in factors]
        for small, large in zip(removed, removed[1:]):
            if not small <= large:
                ok = False
    frames = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    kept, threshold = noise_filter(frames, 0.7)
    # oracle value: mean of per-frame (1 - cos)^2 distances over (L * factor)
    q_oracle = (2 * (1 - 2 / np.sqrt(5)) ** 2 + (1 - 1 / np.sqrt(5)) ** 2) / (3 * 0.7)
    ok = ok and abs(threshold - q_oracle) <= 1e-6
    ok = ok and kept.tolist() == [0, 1]  # the last frame, and only it, is removed
    _verdict(capsys, 5,
             f"filtered set grows with the threshold factor; 3-frame example gives q={threshold:.4f} "
             "and removes exactly the last frame", ok)


def test_criterion_06_partition_reconstruction(capsys):
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(1000):
        length = int(rng.integers(1, 300))
        stride = int(rng.integers(1, 80))
        covered = []
        for a, b in partition(length, stride):
            covered.extend(range(a, b + 1))
        if covered != list(range(length)):
            ok = False
            break
    _verdict(capsys, 6,
             "sub-tracklet ranges concatenate back to the surviving frames on 1000 (length, stride) pairs",
             ok)


def test_criterion_07_memory_update_arithmetic(capsys):
    banks = MemoryBanks(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    updated = update_banks(banks, np.array([[0.0, 1.0]]), np.array([1]), 0.1)
    expected = np.array([0.1, 0.9]) / np.linalg.norm([0.1, 0.9])  # oracle by direct substitution
    ok = bool(np.abs(updated.centroid[0] - expected).max() <= 1e-4)
    rng = np.random.default_rng(107)
    rows = rng.normal(size=(3, 4))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    frozen = MemoryBanks(rows, rows.copy())
    out = update_banks(frozen, rng.normal(size=(1, 4)), np.array([2]), 1.0)
    ok = ok and np.array_equal(out.centroid, frozen.centroid)
    _verdict(capsys, 7,
             f"momentum update reproduces ({updated.centroid[0][0]:.4f}, {updated.centroid[0][1]:.4f}) "
             "within 1e-4; momentum 1 is an exact fixed point", ok)


def test_criterion_08_directional_comparison(capsys):
    fixture = load_json(FIXTURES / "pilot_margins.json")
    t0 = time.perf_counter()
    rows = [compare_full_vs_baseline(seed) for seed in fixture["seeds"]]
    elapsed = time.perf_counter() - t0
    wins = sum(
        1 for r in rows
        if r["margin_map"] > 0 and r["margin_f1"] > 0 and r["margin_incorrect"] > 0
    )
    ok = wins >= 4 and elapsed <= 300.0
    # fresh margins must reproduce the recorded fixture
    for fresh, recorded in zip(rows, fixture["rows"]):
        ok = ok and abs(fresh["margin_map"] - recorded["margin_map"]) <= 1e-9
        ok = ok and abs(fresh["margin_f1"] - recorded["margin_f1"]) <= 1e-9
        ok = ok and fresh["margin_incorrect"] == recorded["margin_incorrect"]
    _verdict(capsys, 8,
             f"full pipeline beats baseline on F1, mAP, and incorrect clusters on {wins}/5 seeds "
             f"(need >=4) in {elapsed:.0f}s (limit 300s)", ok)


def test_criterion_09_determinism(capsys, tmp_path):
    spec = {
        "num_identities": 6, "num_cameras": 2, "tracklets_per_identity": 2,
        "tracklet_length_range": [48, 80], "raw_dim": 16, "identity_separation": 0.8,
        "splice_rate": 0.3, "splice_len_range": [8, 12], "seed": 7,
    }
    cfg = {"dim": 8, "epochs": 3, "batch_size": 8, "k1": 6, "k2": 2,
           "partition_stride": 16, "merge_switch_epoch": 2, "rng_seed": 5}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli_main(["generate", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "data")]) == 0
    blobs = []
    for name in ("r1", "r2"):
        assert cli_main(["train", "--data", str(tmp_path / "data"),
                         "--config", str(tmp_path / "cfg.json"),
                         "--out", str(tmp_path / name)]) == 0
        blobs.append((tmp_path / name / "reports.jsonl").read_bytes())
    ok = blobs[0] == blobs[1]
    _verdict(capsys, 9, "seeded training writes byte-identical reports.jsonl across two runs", ok)


def test_criterion_10_map_oracle(capsys):
    query = np.array([[1.0, 0.0]])
    cosines = np.array([0.99, 0.9, 0.8, 0.5])
    gallery = np.stack([cosines, np.sqrt(1 - cosines**2)], axis=1)
    out = map_cmc(query, [(1, 0)], gallery, [(1, 1), (2, 0), (1, 2), (3, 0)], k_max=4)
    ok = out.map == (1.0 + 2.0 / 3.0) / 2.0  # matches enumerated 5/6 exactly

    rng = np.random.default_rng(110)
    worst = 0.0
    done = 0
    while done < 100:
        feats = rng.normal(size=(20, 5))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        meta = [(int(rng.integers(6)), int(rng.integers(3))) for _ in range(20)]
        dist = 1.0 - feats @ feats.T
        aps = []
        for qi in range(20):
            order = sorted(range(20), key=lambda j: (dist[qi, j], j))
            kept = [j for j in order if not (meta[j][0] == meta[qi][0] and meta[j][1] == meta[qi][1])]
            ap = average_precision_enum(meta[qi][0], [meta[j][0] for j in kept])
            if ap is not None:
                aps.append(ap)
        if not aps:
            continue
        res = map_cmc(feats, meta, feats, meta, k_max=10)
        worst = max(worst, abs(res.map - sum(aps) / len(aps)))
        done += 1
    ok = ok and worst <= 1e-12
    _verdict(capsys, 10,
             f"mAP equals brute-force enumeration on 100 instances ({worst:.2e} <= 1e-12); "
             "textbook 5/6 case exact", ok)

