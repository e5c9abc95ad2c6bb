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
    pairs = np.unique(np.stack([parent[keep], labels[keep]], axis=1), axis=0).tolist()
    witness: dict[tuple[int, int], set[int]] = {}
    for tracklet, rows in groupby(pairs, key=lambda row: row[0]):
        for edge in combinations([y for _, y in rows], 2):  # labels ascend: a < b
            witness.setdefault(edge, set()).add(tracklet)
    return ReachabilityGraph(
        nodes=frozenset(y for _, y in pairs),
        edges=frozenset(witness),
        witness={e: frozenset(w) for e, w in witness.items()},
    )


def direct_positive_sets(g: ReachabilityGraph) -> dict[int, frozenset[int]]:
    """P(c) = {c} plus one-hop neighbors; no transitive chaining."""
    psets = {c: {c} for c in g.nodes}
    for a, b in g.edges:
        psets[a].add(b)
        psets[b].add(a)
    return {c: frozenset(s) for c, s in psets.items()}


def reachable_positive_sets(
    g: ReachabilityGraph,
) -> tuple[dict[int, frozenset[int]], dict[int, int]]:
    """Connected components: P(c) is c's component, the refined label its id.

    Component ids are 1-based, ordered by each component's smallest member.
    Nodes are numbered by rank, so ``kernels.components`` gives each the
    rank of its component's smallest member.
    """
    nodes = np.array(sorted(g.nodes), dtype=np.int64)
    a, b = np.searchsorted(nodes, np.array(sorted(g.edges), dtype=np.int64).reshape(-1, 2)).T
    root = kernels.components(len(nodes), np.concatenate([a, b]), np.concatenate([b, a]))
    ids = np.cumsum(root == np.arange(len(nodes)))[root].tolist()
    refined = dict(zip(nodes.tolist(), ids))
    members: dict[int, set[int]] = {}
    for c, comp_id in refined.items():
        members.setdefault(comp_id, set()).add(c)
    frozen = {comp_id: frozenset(m) for comp_id, m in members.items()}
    psets = {c: frozen[comp_id] for c, comp_id in refined.items()}
    return psets, refined


def merged_state(
    units: Sequence[SubTracklet],
    labels: np.ndarray,
    g: ReachabilityGraph,
    mode: str,
) -> LabelState:
    """Label state for one mode: DIRECT positives are one-hop neighborhoods;
    REACHABLE positives are connected components, whose ids become refined labels."""
    if mode == MODE_DIRECT:
        psets, refined = direct_positive_sets(g), None
    else:
        psets, refined = reachable_positive_sets(g)
    return LabelState(units, labels, psets, mode=mode, refined=refined)


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
