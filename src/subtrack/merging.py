"""Tracklet-consistency reachability graph and progressive positive sets.

Sub-clusters that share sub-tracklets of one tracklet get an edge. Early in
training only one-hop neighborhoods count as positives (no transitive
chaining, so a wrong edge cannot propagate); after the merge switch epoch the
connected components become the refined labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from typing import Mapping, Sequence

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


@dataclass(frozen=True)
class ReachabilityGraph:
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]  # (a, b) with a < b
    witness: Mapping[tuple[int, int], frozenset[int]]  # each edge's tracklet indices


def build_graph(labels: np.ndarray, parent: np.ndarray) -> ReachabilityGraph:
    """One clique of edges per tracklet whose units span several labels.

    Unit i has label ``labels[i]`` and tracklet index ``parent[i]``; OUTLIER
    units are left out, and ``witness`` names tracklets by that index.
    """
    keep = labels != OUTLIER
    span = int(labels.max(initial=0)) + 1  # one key per (tracklet, label) pair
    tracklets, ys = np.divmod(np.unique(parent[keep] * span + labels[keep]), span)
    witness: dict[tuple[int, int], set[int]] = {}
    for tracklet, rows in groupby(zip(tracklets.tolist(), ys.tolist()), key=lambda row: row[0]):
        for edge in combinations([y for _, y in rows], 2):  # labels ascend: a < b
            witness.setdefault(edge, set()).add(tracklet)
    return ReachabilityGraph(
        nodes=frozenset(ys.tolist()),
        edges=frozenset(witness),
        witness={e: frozenset(w) for e, w in witness.items()},
    )


def merged_state(
    units: Sequence[SubTracklet],
    labels: np.ndarray,
    g: ReachabilityGraph,
    mode: str,
) -> LabelState:
    """Label state for one mode over labels 1..n, every one of which ``labels`` holds.

    DIRECT positives are each label plus its one-hop neighbors, with no
    transitive chaining; REACHABLE positives are connected components, whose
    1-based ids, in order of each one's smallest label, become the refined labels.
    """
    n = int(labels.max(initial=0))
    a, b = np.array(list(g.edges), dtype=np.int64).reshape(-1, 2).T - 1
    if mode == MODE_DIRECT:
        positives = np.eye(n, dtype=bool)
        positives[a, b] = positives[b, a] = True
        return LabelState(units, labels, positives)
    root = kernels.components(n, np.concatenate([a, b]), np.concatenate([b, a]))
    refined = np.cumsum(root == np.arange(n))[root]  # root: the component's smallest label
    return LabelState(units, labels, refined[:, None] == refined, refined)


def progressive_positive_sets(
    units: Sequence[SubTracklet],
    labels: np.ndarray,
    g: ReachabilityGraph,
    epoch: int,
    cfg: TrainConfig,
) -> LabelState:
    """Direct neighborhoods before the merge switch epoch, components after."""
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    mode = MODE_DIRECT if epoch < cfg.merge_switch_epoch else MODE_REACHABLE
    return merged_state(units, labels, g, mode)
