"""Tracklet-consistency reachability graph and progressive positive sets.

Sub-clusters that share sub-tracklets of one tracklet get an edge. Early in
training only one-hop neighborhoods count as positives (no transitive
chaining, so a wrong edge cannot propagate); after the merge switch epoch the
connected components become the refined labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

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
    witness: Mapping[tuple[int, int], frozenset[str]]


def build_graph(assignment: Mapping[SubTracklet, int]) -> ReachabilityGraph:
    """One clique of edges per tracklet whose sub-tracklets span several labels."""
    per_tracklet: dict[str, set[int]] = {}
    for st, y in assignment.items():
        if y == OUTLIER:
            continue
        per_tracklet.setdefault(st.parent_id, set()).add(y)
    witness: dict[tuple[int, int], set[str]] = {}
    for tid, labels in per_tracklet.items():
        for edge in combinations(sorted(labels), 2):
            witness.setdefault(edge, set()).add(tid)
    return ReachabilityGraph(
        nodes=frozenset().union(*per_tracklet.values()),
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
    assignment: Mapping[SubTracklet, int],
    g: ReachabilityGraph,
    mode: str,
) -> LabelState:
    """Label state for one mode: DIRECT positives are one-hop neighborhoods;
    REACHABLE positives are connected components, whose ids become refined labels."""
    if mode == MODE_DIRECT:
        psets, refined = direct_positive_sets(g), None
    else:
        psets, refined = reachable_positive_sets(g)
    return LabelState(assignment=dict(assignment), positive_sets=psets, mode=mode, refined=refined)


def progressive_positive_sets(
    assignment: Mapping[SubTracklet, int],
    g: ReachabilityGraph,
    epoch: int,
    cfg: TrainConfig,
) -> LabelState:
    """Direct neighborhoods before the merge switch epoch, components after."""
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    mode = MODE_DIRECT if epoch < cfg.merge_switch_epoch else MODE_REACHABLE
    return merged_state(assignment, g, mode)
