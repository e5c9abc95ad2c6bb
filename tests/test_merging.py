import numpy as np
import pytest

from oracles import (
    adjacency,
    bfs_components,
    component_mask,
    direct_positive_sets,
    positive_mask,
    reachability_graph_by_tracklet,
    reachable_positive_sets,
)
from subtrack.merging import build_graph, merged_state, progressive_positive_sets
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


def _nodes(g):
    """The labels some unit holds, ascending."""
    return np.flatnonzero(np.diagonal(g)) + 1


def _edges(g):
    """(m, 2) label pairs (a, b) with a < b, by rows."""
    return np.argwhere(np.triu(g, 1)) + 1


def _merged(spread, mode):
    """The label state of one merge mode on a spread whose labels are 1..n."""
    labels, parent = _assignment(spread)
    return merged_state(_units(spread), labels, build_graph(labels, parent), mode)


def _states(g):
    """DIRECT and REACHABLE states of a graph on nodes 1..n, one unit per label."""
    labels = np.arange(1, len(g) + 1)
    return merged_state([], labels, g, MODE_DIRECT), merged_state([], labels, g, MODE_REACHABLE)


def test_build_graph_chain_not_transitive():
    g = _graph({"A": [1, 2], "B": [2, 3]})
    assert _edges(g).tolist() == [[1, 2], [2, 3]]
    assert not g[0, 2] and not g[2, 0]


def test_build_graph_single_cluster_tracklets_no_edges():
    g = _graph({"A": [1, 1], "B": [2], "C": [3, 3, 3]})
    assert _edges(g).shape == (0, 2)
    assert _nodes(g).tolist() == [1, 2, 3]
    assert isinstance(g, np.ndarray) and g.dtype == bool
    assert np.array_equal(g, np.eye(3, dtype=bool))


def test_build_graph_clique_rule():
    g = _graph({"A": [1, 2, 3]})
    assert _edges(g).tolist() == [[1, 2], [1, 3], [2, 3]]
    assert g.all()


def test_build_graph_ignores_outliers():
    g = _graph({"A": [1, OUTLIER, 2]})
    assert _nodes(g).tolist() == [1, 2]
    assert _edges(g).tolist() == [[1, 2]]


def test_build_graph_order_invariant():
    spread = {"A": [1, 2], "B": [2, 3], "C": [4]}
    labels, parent = _assignment(spread)
    a = build_graph(labels, parent)
    b = build_graph(labels[::-1], parent[::-1])
    assert np.array_equal(a, b)


def test_build_graph_matches_per_tracklet_oracle_random_units():
    # OUTLIERs, labels no unit holds and units in shuffled order all occur
    rng = np.random.default_rng(31)
    for _ in range(200):
        num_units = int(rng.integers(0, 80))
        num_tracklets = int(rng.integers(1, 20))
        labels = rng.integers(0, int(rng.integers(1, 12)) + 1, size=num_units)  # 0 is OUTLIER
        parent = rng.integers(0, num_tracklets, size=num_units)
        ids = [f"t{i}" for i in rng.permutation(num_tracklets)]
        order = rng.permutation(num_units)  # units in shuffled order
        g = build_graph(labels[order], parent[order])
        nodes, edges = reachability_graph_by_tracklet(
            (ids[t], y) for t, y in zip(parent.tolist(), labels.tolist()))
        assert _nodes(g).tolist() == sorted(nodes)
        assert set(map(tuple, _edges(g).tolist())) == edges
        n = int(labels.max(initial=0))
        every = range(1, n + 1)
        direct = merged_state([], labels, g, MODE_DIRECT)
        reach = merged_state([], labels, g, MODE_REACHABLE)
        assert np.array_equal(direct.positives, positive_mask(direct_positive_sets(every, edges), n))
        assert np.array_equal(reach.positives,
                              positive_mask(reachable_positive_sets(every, edges)[0], n))


def test_direct_positive_sets_chain():
    psets = _merged({"A": [1, 2], "B": [2, 3]}, MODE_DIRECT).positive_sets
    assert psets[1] == frozenset({1, 2})
    assert psets[2] == frozenset({1, 2, 3})
    assert psets[3] == frozenset({2, 3})


def test_direct_positive_sets_isolated_and_symmetric():
    state = _merged({"A": [1], "B": [2, 3]}, MODE_DIRECT)
    psets = state.positive_sets
    assert psets[1] == frozenset({1})
    for a, pos in psets.items():
        for b in pos:
            assert a in psets[b]
    assert np.array_equal(state.positives, state.positives.T)


def test_reachable_positive_sets_chain_single_component():
    state = _merged({"A": [1, 2], "B": [2, 3]}, MODE_REACHABLE)
    psets, refined = state.positive_sets, state.refined
    assert psets[1] == psets[2] == psets[3] == frozenset({1, 2, 3})
    assert refined[0] == refined[1] == refined[2] == 1


def test_reachable_positive_sets_disjoint_edges():
    state = _merged({"A": [1, 2], "B": [3, 4]}, MODE_REACHABLE)
    psets = state.positive_sets
    assert psets[1] == frozenset({1, 2})
    assert psets[3] == frozenset({3, 4})
    assert state.refined.dtype == np.int64 and state.refined.tolist() == [1, 1, 2, 2]


def test_reachable_positive_sets_no_edges_singletons():
    state = _merged({"A": [1], "B": [2], "C": [3]}, MODE_REACHABLE)
    assert all(state.positive_sets[c] == frozenset({c}) for c in (1, 2, 3))
    assert sorted(state.refined.tolist()) == [1, 2, 3]


def _random_graph(rng, max_nodes=500, sparse=False):
    """(graph, nodes, edges) on nodes 1..n; with ``sparse`` the last quarter of them
    has no edges."""
    n = int(rng.integers(1, max_nodes + 1))
    ids = np.arange(1, n + 1)
    linked = ids[: max(1, n - n // 4)] if sparse else ids
    m = int(rng.integers(0, max(1, 2 * n)))
    edges = set()
    for _ in range(m):
        a, b = rng.choice(linked, size=2).tolist()
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return adjacency(n, edges), frozenset(ids.tolist()), frozenset(edges)


def test_reachable_matches_bfs_oracle_random_graphs():
    rng = np.random.default_rng(7)
    for sparse in [False] * 60 + [True] * 60:
        g, nodes, edges = _random_graph(rng, sparse=sparse)
        _, state = _states(g)
        expected = bfs_components(nodes, edges)
        assert np.array_equal(state.positives, component_mask(expected, len(nodes)))
        refined = state.refined.tolist()
        # refined ids are exactly 1.. in order of each component's smallest member
        by_smallest = sorted(expected, key=min)
        assert dict(enumerate(refined, start=1)) == {
            c: i for i, comp in enumerate(by_smallest, start=1) for c in comp}


def test_direct_subset_of_reachable_random_graphs():
    rng = np.random.default_rng(13)
    for _ in range(60):
        g, _, _ = _random_graph(rng, max_nodes=120)
        direct, reach = _states(g)
        assert np.all(direct.positives <= reach.positives)


def test_merged_state_matches_dict_oracles_random_graphs():
    # n = 0, graphs without edges and labels outside every edge all occur
    rng = np.random.default_rng(41)
    for trial in range(300):
        n = 0 if trial == 0 else int(rng.integers(1, 40))
        linked = rng.permutation(n)[: int(rng.integers(0, n + 1))] + 1  # the rest stay isolated
        m = 0 if trial % 4 == 1 or linked.size < 2 else int(rng.integers(1, 2 * n + 1))
        edges = frozenset(tuple(sorted(rng.choice(linked, size=2, replace=False).tolist()))
                          for _ in range(m))
        nodes = frozenset(range(1, n + 1))
        # every label 1..n holds some units, and OUTLIER units are mixed in
        labels = rng.permutation(np.repeat(np.arange(n + 1), rng.integers(1, 4, size=n + 1)))
        g = adjacency(n, edges)
        direct = merged_state([], labels, g, MODE_DIRECT)
        reach = merged_state([], labels, g, MODE_REACHABLE)
        direct_sets = direct_positive_sets(nodes, edges)
        reach_sets, refined = reachable_positive_sets(nodes, edges)
        assert np.array_equal(direct.positives, positive_mask(direct_sets, n))
        assert np.array_equal(reach.positives, positive_mask(reach_sets, n))
        assert np.array_equal(reach.refined, np.array([refined[y] for y in range(1, n + 1)],
                                                      dtype=np.int64))
        assert direct.refined is None and direct.check() == [] and reach.check() == []


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
