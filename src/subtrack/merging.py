"""Tracklet-consistency reachability graph and progressive positive sets.

Sub-clusters that share sub-tracklets of one tracklet get an edge. The graph
goes out as the bare (n, n) bool adjacency over labels 1..n, the product of
the tracklet-by-label incidence with itself; there is no per-edge witness map.
Early in training only one-hop neighborhoods count as positives (no
transitive chaining, so a wrong edge cannot propagate): the adjacency plus
the identity. After the merge switch epoch the connected components become
the refined labels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import kernels
from .model import (
    MODE_DIRECT,
    MODE_REACHABLE,
    OUTLIER,
    LabelState,
    SubTracklet,
    TrainConfig,
)


def build_graph(labels: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """(n, n) bool: [a - 1, b - 1] when some tracklet holds units of labels a and b.

    Unit i has label ``labels[i]`` and tracklet index ``parent[i]``; OUTLIER
    units are left out. The diagonal marks the labels some unit holds.
    """
    keep = labels != OUTLIER
    incidence = np.zeros((int(parent.max(initial=-1)) + 1, int(labels.max(initial=0))))
    incidence[parent[keep], labels[keep] - 1] = 1.0  # float: the product goes to BLAS
    return incidence.T @ incidence > 0


def merged_state(
    units: Sequence[SubTracklet],
    labels: np.ndarray,
    adjacency: np.ndarray,
    mode: str,
) -> LabelState:
    """Label state for one mode over the adjacency's labels 1..n, each held in ``labels``.

    DIRECT positives are each label plus its one-hop neighbors, with no
    transitive chaining; REACHABLE positives are connected components, whose
    1-based ids, in order of each one's smallest label, become the refined labels.
    """
    n = len(adjacency)
    if mode == MODE_DIRECT:
        return LabelState(units, labels, adjacency | np.eye(n, dtype=bool))
    root = kernels.components(n, *np.nonzero(adjacency))
    refined = np.cumsum(root == np.arange(n))[root]  # root: the component's smallest label
    return LabelState(units, labels, refined[:, None] == refined, refined)


def progressive_positive_sets(
    units: Sequence[SubTracklet],
    labels: np.ndarray,
    adjacency: np.ndarray,
    epoch: int,
    cfg: TrainConfig,
) -> LabelState:
    """Direct neighborhoods before the merge switch epoch, components after."""
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    mode = MODE_DIRECT if epoch < cfg.merge_switch_epoch else MODE_REACHABLE
    return merged_state(units, labels, adjacency, mode)
