"""Retrieval metrics and clustering-quality statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import OUTLIER


@dataclass(frozen=True)
class RetrievalResult:
    map: float
    cmc: np.ndarray  # rank-1..K_max accuracies, non-decreasing
    skipped_queries: int  # queries with no valid cross-camera match


@dataclass(frozen=True)
class ClusterStats:
    correct: int        # clusters whose members all share one identity
    cross_camera: int   # correct clusters spanning >= 2 cameras
    incorrect: int
    total_identities: int

    @property
    def total_clusters(self) -> int:
        return self.correct + self.incorrect


def map_cmc(
    query_feats: np.ndarray,
    query_meta: Sequence[tuple[int, int]],
    gallery_feats: np.ndarray,
    gallery_meta: Sequence[tuple[int, int]],
    k_max: int = 10,
) -> RetrievalResult:
    """Cross-camera retrieval: rank by cosine distance, score AP and CMC.

    Gallery entries sharing both identity and camera with the query are
    excluded from its ranking (the standard junk rule); queries left without
    any valid match are skipped and counted.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, not {k_max}")
    query_feats = np.asarray(query_feats, dtype=np.float64)
    gallery_feats = np.asarray(gallery_feats, dtype=np.float64)
    q_ids = np.asarray([m[0] for m in query_meta])
    q_cams = np.asarray([m[1] for m in query_meta])
    g_ids = np.asarray([m[0] for m in gallery_meta])
    g_cams = np.asarray([m[1] for m in gallery_meta])

    dist = 1.0 - query_feats @ gallery_feats.T
    aps = []
    cmc_hits = np.zeros(k_max)
    skipped = 0
    for qi in range(query_feats.shape[0]):
        junk = (g_ids == q_ids[qi]) & (g_cams == q_cams[qi])
        order = np.argsort(dist[qi], kind="stable")  # ties break by gallery index
        order = order[~junk[order]]
        matches = g_ids[order] == q_ids[qi]
        if not matches.any():
            skipped += 1
            continue
        hit_pos = np.flatnonzero(matches)
        precision_at_hit = (np.arange(1, hit_pos.size + 1)) / (hit_pos + 1)
        aps.append(precision_at_hit.mean())
        first = hit_pos[0]
        if first < k_max:
            cmc_hits[first:] += 1
    if not aps:
        raise ValueError("no query has a valid cross-camera match")
    n_valid = len(aps)
    return RetrievalResult(float(np.mean(aps)), cmc_hits / n_valid, skipped)


def _contingency(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Count of each (row value, column value) pair, both axes in ascending value order."""
    row_values, r = np.unique(rows, return_inverse=True)
    col_values, c = np.unique(cols, return_inverse=True)
    table = np.zeros((row_values.size, col_values.size), dtype=np.int64)
    np.add.at(table, (r, c), 1)
    return table


def pairwise_prf(
    pseudo_labels: Sequence[int],
    gt_identities: Sequence[int],
) -> tuple[float, float, float]:
    """Pairwise precision/recall/F1 of pseudo labels against identities.

    OUTLIER samples contribute no pairs. Degenerate denominators yield 0.
    """
    pseudo = np.asarray(pseudo_labels)
    gt = np.asarray(gt_identities)
    keep = pseudo != OUTLIER
    pseudo, gt = pseudo[keep], gt[keep]
    if pseudo.size < 2:
        raise ValueError("need at least two labeled samples")

    def pair_count(counts: np.ndarray) -> float:
        return float((counts * (counts - 1) // 2).sum())

    contingency = _contingency(pseudo, gt)
    tp = pair_count(contingency)
    pred_pairs = pair_count(contingency.sum(axis=1))
    gt_pairs = pair_count(contingency.sum(axis=0))
    precision = tp / pred_pairs if pred_pairs else 0.0
    recall = tp / gt_pairs if gt_pairs else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def cluster_stats(
    pseudo_labels: Sequence[int],
    gt_identities: Sequence[int],
    cameras: Sequence[int],
) -> ClusterStats:
    pseudo = np.asarray(pseudo_labels)
    gt = np.asarray(gt_identities)
    cams = np.asarray(cameras)
    keep = pseudo != OUTLIER
    pseudo, gt, cams = pseudo[keep], gt[keep], cams[keep]
    # one entry per label: correct with one identity, cross-camera if also two or more cameras
    correct = np.count_nonzero(_contingency(pseudo, gt), axis=1) == 1
    cross = correct & (np.count_nonzero(_contingency(pseudo, cams), axis=1) >= 2)
    return ClusterStats(int(correct.sum()), int(cross.sum()), int((~correct).sum()),
                        int(np.unique(np.asarray(gt_identities)).size))
