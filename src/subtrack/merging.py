"""Tracklet-consistency reachability graph and the positives of one merge mode.

Sub-clusters that share sub-tracklets of one tracklet get an edge. The graph
goes out as the bare (n, n) bool adjacency over labels 1..n, the product of
the tracklet-by-label incidence with itself; there is no per-edge witness map.
``trainer.cluster_epoch`` picks the mode once per epoch and hands it here as a
bool; merging returns bare arrays. DIRECT positives are one-hop neighborhoods
(no transitive chaining, so a wrong edge cannot propagate): the adjacency plus
the identity. REACHABLE positives are connected components, whose ids become
the refined labels.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import kernels
from .model import OUTLIER


def build_graph(labels: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """(n, n) bool: [a - 1, b - 1] when some tracklet holds units of labels a and b.

    Unit i has label ``labels[i]`` and tracklet index ``parent[i]``; OUTLIER
    units are left out. The diagonal marks the labels some unit holds.
    """
    keep = labels != OUTLIER
    incidence = np.zeros((int(parent.max(initial=-1)) + 1, int(labels.max(initial=0))))
    incidence[parent[keep], labels[keep] - 1] = 1.0  # float: the product goes to BLAS
    return incidence.T @ incidence > 0


def merge_positives(adjacency: np.ndarray,
                    reachable: bool) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(positives, refined) over the adjacency's labels 1..n.

    DIRECT (``reachable`` False) positives are each label plus its one-hop neighbors, with
    no transitive chaining, and refined is None; REACHABLE positives are connected
    components, whose 1-based ids, in order of each one's smallest label, are the refined labels.
    """
    n = len(adjacency)
    if not reachable:
        return adjacency | np.eye(n, dtype=bool), None
    root = kernels.components(n, *np.nonzero(adjacency))
    refined = np.cumsum(root == np.arange(n))[root]  # root: the component's smallest label
    return refined[:, None] == refined, refined
