"""Tracklet-consistency reachability graph and progressive positive sets.

Sub-clusters that share sub-tracklets of one tracklet get an edge. Early in
training only one-hop neighborhoods count as positives (no transitive
chaining, so a wrong edge cannot propagate); after the merge switch epoch the
connected components become the refined labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        px, py = self.find(x), self.find(y)
        if px != py:
            self.parent[max(px, py)] = min(px, py)


def build_graph(assignment: Mapping[SubTracklet, int]) -> ReachabilityGraph:
    """One clique of edges per tracklet whose sub-tracklets span several labels."""
    nodes = {y for y in assignment.values() if y != OUTLIER}
    per_tracklet: dict[str, set[int]] = {}
    for st, y in assignment.items():
        if y == OUTLIER:
            continue
        per_tracklet.setdefault(st.parent_id, set()).add(y)
    witness: dict[tuple[int, int], set[str]] = {}
    for tid, labels in per_tracklet.items():
        ordered = sorted(labels)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                witness.setdefault((a, b), set()).add(tid)
    return ReachabilityGraph(
        nodes=frozenset(nodes),
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
    """
    uf = UnionFind(g.nodes)
    for a, b in g.edges:
        uf.union(a, b)
    components: dict[int, set[int]] = {}
    for c in g.nodes:
        components.setdefault(uf.find(c), set()).add(c)
    refined: dict[int, int] = {}
    psets: dict[int, frozenset[int]] = {}
    for comp_id, root in enumerate(sorted(components), start=1):
        members = frozenset(components[root])
        for c in members:
            refined[c] = comp_id
            psets[c] = members
    return psets, refined


def merged_state(
    assignment: Mapping[SubTracklet, int],
    g: ReachabilityGraph,
    mode: str,
) -> LabelState:
    """Label state for one mode: DIRECT positives are one-hop neighborhoods;
    REACHABLE positives are connected components, whose ids become refined labels."""
    if mode == MODE_DIRECT:
        return LabelState(
            assignment=dict(assignment),
            positive_sets=direct_positive_sets(g),
            mode=MODE_DIRECT,
        )
    psets, refined = reachable_positive_sets(g)
    return LabelState(
        assignment=dict(assignment),
        positive_sets=psets,
        mode=MODE_REACHABLE,
        refined=refined,
    )


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
