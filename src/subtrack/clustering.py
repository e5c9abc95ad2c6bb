"""Pairwise distances and strict density clustering over sub-tracklet features."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .model import OUTLIER, LabelState, SubTracklet, TrainConfig

@dataclass(frozen=True)
class DistanceMatrix:
    values: np.ndarray  # symmetric, zero diagonal
    degenerate_fallback: bool = False  # cosine values: too few samples for the Jaccard metric


def cosine_distance_matrix(features: np.ndarray) -> DistanceMatrix:
    features = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(features, axis=1)
    if features.shape[0] and np.max(np.abs(norms - 1.0)) > 1e-4:
        raise ValueError("cosine_distance_matrix expects L2-normalized rows")
    d = 1.0 - features @ features.T
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    np.clip(d, 0.0, 2.0, out=d)
    return DistanceMatrix(d)


def _k_reciprocal_neighbors(initial_rank: np.ndarray, i: int, k: int) -> np.ndarray:
    forward = initial_rank[i, : k + 1]
    backward = initial_rank[forward, : k + 1]
    return forward[np.any(backward == i, axis=1)]


def k_reciprocal_jaccard(features: np.ndarray, k1: int, k2: int) -> DistanceMatrix:
    """Jaccard distance over expanded k-reciprocal neighbor weight vectors.

    Reciprocal neighbor sets are expanded with half-k1 reciprocal neighbors of
    their members when the overlap reaches 2/3, weighted by a Gaussian of the
    cosine distance, then smoothed by averaging over each sample's k2 nearest
    weight vectors. With fewer than k1 + 1 samples the metric degenerates and
    the plain cosine matrix is returned with a flag.
    """
    if not k1 > k2 >= 1:
        raise ValueError("need k1 > k2 >= 1")
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    cos = cosine_distance_matrix(features)
    if n <= k1:
        return DistanceMatrix(cos.values, degenerate_fallback=True)
    dist = cos.values
    # rank self strictly first even under exact-duplicate ties
    ranking_dist = dist.copy()
    np.fill_diagonal(ranking_dist, -1.0)
    initial_rank = np.argsort(ranking_dist, axis=1, kind="stable")

    half = int(np.around(k1 / 2))
    nn_k1 = [_k_reciprocal_neighbors(initial_rank, i, k1) for i in range(n)]
    nn_half = [_k_reciprocal_neighbors(initial_rank, i, half) for i in range(n)]

    W = np.zeros((n, n))
    for i in range(n):
        expansion = nn_k1[i]
        for cand in nn_k1[i]:
            cand_set = nn_half[cand]
            if np.intersect1d(cand_set, nn_k1[i]).size >= (2.0 / 3.0) * cand_set.size:
                expansion = np.append(expansion, cand_set)
        expansion = np.unique(expansion)
        weights = np.exp(-dist[i, expansion])
        W[i, expansion] = weights / weights.sum()

    if k2 > 1:
        W = W[initial_rank[:, :k2]].mean(axis=1)

    jac = kernels.jaccard_from_weights(W)
    jac = (jac + jac.T) / 2.0
    np.fill_diagonal(jac, 0.0)
    np.clip(jac, 0.0, 1.0, out=jac)
    return DistanceMatrix(jac)


def dbscan(dist, eps: float, min_samples: int) -> np.ndarray:
    """Density clustering over a precomputed distance matrix.

    Returns an int array with cluster labels 1..n (assigned in order of first
    core point index) and OUTLIER (0) for unclustered samples.
    """
    if eps <= 0 or min_samples < 2:
        raise ValueError("need eps > 0 and min_samples >= 2")
    values = dist.values if isinstance(dist, DistanceMatrix) else np.asarray(dist, dtype=np.float64)
    return kernels.dbscan_labels(values, eps, min_samples)


def sub_cluster_generate(
    features: np.ndarray,
    cfg: TrainConfig,
    keys: Optional[Sequence[SubTracklet]] = None,
) -> LabelState:
    """Cluster sub-tracklet features into reliable sub-clusters.

    Outliers keep the OUTLIER label and drop out of the epoch's training set;
    the positive sets are singletons until the merging stage widens them.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] == 0:
        return LabelState(assignment={}, positive_sets={})
    dist = k_reciprocal_jaccard(features, cfg.k1, cfg.k2)
    labels = dbscan(dist, cfg.eps, cfg.min_samples)
    if keys is None:
        keys = [SubTracklet(str(i), 1, (0, 0)) for i in range(features.shape[0])]
    assignment = {key: int(y) for key, y in zip(keys, labels)}
    positive_sets = {int(y): frozenset([int(y)]) for y in np.unique(labels) if y != OUTLIER}
    return LabelState(assignment=assignment, positive_sets=positive_sets)
