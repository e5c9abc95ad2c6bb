import numpy as np
import pytest

from oracles import bfs_components, reachability_graph_by_tracklet
from subtrack.merging import (
    ReachabilityGraph,
    build_graph,
    direct_positive_sets,
    progressive_positive_sets,
    reachable_positive_sets,
)
from subtrack.model import (
    MODE_DIRECT,
    MODE_REACHABLE,
    OUTLIER,
    SubTracklet,
    default_config,
)


def _assignment(spread):
    """spread: {tracklet_id: [labels of its sub-tracklets in order]}.

    Returns the aligned (labels, parent) arrays; parent[i] indexes the
    tracklet in the order of ``spread``.
    """
    pairs = [(t, y) for t, labels in enumerate(spread.values()) for y in labels]
    parent, labels = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return labels, parent


def _units(spread):
    return [SubTracklet(tid, i, (0, 0)) for tid, labels in spread.items()
            for i in range(1, len(labels) + 1)]


def _graph(spread):
    return build_graph(*_assignment(spread))


def test_build_graph_chain_not_transitive():
    g = _graph({"A": [1, 2], "B": [2, 3]})
    assert g.edges == frozenset({(1, 2), (2, 3)})
    assert (1, 3) not in g.edges
    assert g.witness[(1, 2)] == frozenset({0})  # tracklet A
    assert g.witness[(2, 3)] == frozenset({1})  # tracklet B


def test_build_graph_single_cluster_tracklets_no_edges():
    g = _graph({"A": [1, 1], "B": [2], "C": [3, 3, 3]})
    assert g.edges == frozenset()
    assert g.nodes == frozenset({1, 2, 3})


def test_build_graph_clique_rule():
    g = _graph({"A": [1, 2, 3]})
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})


def test_build_graph_ignores_outliers():
    g = _graph({"A": [1, OUTLIER, 2]})
    assert g.nodes == frozenset({1, 2})
    assert g.edges == frozenset({(1, 2)})


def test_build_graph_order_invariant():
    spread = {"A": [1, 2], "B": [2, 3], "C": [4]}
    labels, parent = _assignment(spread)
    a = build_graph(labels, parent)
    b = build_graph(labels[::-1], parent[::-1])
    assert a.nodes == b.nodes and a.edges == b.edges and a.witness == b.witness


def test_build_graph_matches_per_tracklet_oracle_random_units():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(0, 80))
        num_tracklets = int(rng.integers(1, 20))
        labels = rng.integers(0, int(rng.integers(1, 12)) + 1, size=n)  # 0 is OUTLIER
        parent = rng.integers(0, num_tracklets, size=n)
        ids = [f"t{i}" for i in rng.permutation(num_tracklets)]
        order = rng.permutation(n)  # units in shuffled order
        g = build_graph(labels[order], parent[order])
        nodes, edges, witness = reachability_graph_by_tracklet(
            (ids[t], y) for t, y in zip(parent.tolist(), labels.tolist()))
        assert g.nodes == nodes and g.edges == edges
        assert {e: frozenset(ids[t] for t in w) for e, w in g.witness.items()} == witness


def test_direct_positive_sets_chain():
    g = _graph({"A": [1, 2], "B": [2, 3]})
    psets = direct_positive_sets(g)
    assert psets[1] == frozenset({1, 2})
    assert psets[2] == frozenset({1, 2, 3})
    assert psets[3] == frozenset({2, 3})


def test_direct_positive_sets_isolated_and_symmetric():
    g = _graph({"A": [1], "B": [2, 3]})
    psets = direct_positive_sets(g)
    assert psets[1] == frozenset({1})
    for a, pos in psets.items():
        for b in pos:
            assert a in psets[b]


def test_reachable_positive_sets_chain_single_component():
    g = _graph({"A": [1, 2], "B": [2, 3]})
    psets, refined = reachable_positive_sets(g)
    assert psets[1] == psets[2] == psets[3] == frozenset({1, 2, 3})
    assert refined[1] == refined[2] == refined[3] == 1


def test_reachable_positive_sets_disjoint_edges():
    g = _graph({"A": [1, 2], "B": [3, 4]})
    psets, refined = reachable_positive_sets(g)
    assert psets[1] == frozenset({1, 2})
    assert psets[3] == frozenset({3, 4})
    assert refined == {1: 1, 2: 1, 3: 2, 4: 2}


def test_reachable_positive_sets_no_edges_singletons():
    g = _graph({"A": [1], "B": [2], "C": [3]})
    psets, refined = reachable_positive_sets(g)
    assert all(psets[c] == frozenset({c}) for c in (1, 2, 3))
    assert sorted(refined.values()) == [1, 2, 3]


def _random_graph(rng, max_nodes=500, sparse=False):
    """Nodes 1..n, or with ``sparse`` n scattered ids whose last quarter has no edges."""
    n = int(rng.integers(1, max_nodes + 1))
    ids = np.sort(rng.choice(10 * n, size=n, replace=False)) + 1 if sparse else np.arange(1, n + 1)
    nodes = frozenset(ids.tolist())
    linked = ids[: max(1, n - n // 4)] if sparse else ids
    m = int(rng.integers(0, max(1, 2 * n)))
    edges = set()
    for _ in range(m):
        a, b = rng.choice(linked, size=2).tolist()
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return ReachabilityGraph(
        nodes=nodes,
        edges=frozenset(edges),
        witness={e: frozenset({"w"}) for e in edges},
    )


def test_reachable_matches_bfs_oracle_random_graphs():
    rng = np.random.default_rng(7)
    for sparse in [False] * 60 + [True] * 60:
        g = _random_graph(rng, sparse=sparse)
        psets, refined = reachable_positive_sets(g)
        expected = bfs_components(g.nodes, g.edges)
        assert frozenset(frozenset(p) for p in psets.values()) == expected
        assert all(c in psets[c] for c in g.nodes)
        # refined ids are exactly 1.. in order of each component's smallest member
        by_smallest = sorted(expected, key=min)
        assert refined == {c: i for i, comp in enumerate(by_smallest, start=1) for c in comp}


def test_direct_subset_of_reachable_random_graphs():
    rng = np.random.default_rng(13)
    for _ in range(60):
        g = _random_graph(rng, max_nodes=120)
        direct = direct_positive_sets(g)
        reach, _ = reachable_positive_sets(g)
        for c in g.nodes:
            assert direct[c] <= reach[c]


def test_progressive_switch():
    cfg = default_config()
    spread = {"A": [1, 2], "B": [2, 3]}
    units, (labels, parent) = _units(spread), _assignment(spread)
    g = build_graph(labels, parent)
    early = progressive_positive_sets(units, labels, g, epoch=1, cfg=cfg)
    assert early.mode == MODE_DIRECT
    assert early.refined is None
    assert early.check() == []
    at_switch = progressive_positive_sets(units, labels, g, epoch=51, cfg=cfg)
    assert at_switch.mode == MODE_REACHABLE
    assert at_switch.check() == []
    late = progressive_positive_sets(units, labels, g, epoch=150, cfg=cfg)
    assert late.mode == MODE_REACHABLE


def test_progressive_rejects_bad_epoch():
    cfg = default_config()
    g = _graph({"A": [1]})
    with pytest.raises(ValueError):
        progressive_positive_sets([], [], g, epoch=0, cfg=cfg)


def test_random_label_states_satisfy_invariants():
    rng = np.random.default_rng(29)
    cfg = default_config(merge_switch_epoch=5)
    for _ in range(40):
        spread = {
            f"t{i}": [int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 5)))]
            for i in range(int(rng.integers(1, 12)))
        }
        labels, parent = _assignment(spread)
        g = build_graph(labels, parent)
        epoch = int(rng.integers(1, 10))
        state = progressive_positive_sets(_units(spread), labels, g, epoch, cfg)
        assert state.check() == []
