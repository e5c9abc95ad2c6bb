import numpy as np

from oracles import (
    adjacency,
    bfs_components,
    component_mask,
    direct_positive_sets,
    positive_mask,
    reachability_graph_by_tracklet,
    reachable_positive_sets,
)
from subtrack.merging import build_graph, merge_positives
from subtrack.model import MODE_DIRECT, MODE_REACHABLE, OUTLIER, LabelState, TrainConfig


def _assignment(spread):
    """spread: {tracklet_id: [labels of its sub-tracklets in order]}.

    Returns the aligned (labels, parent) arrays; parent[i] indexes the
    tracklet in the order of ``spread``.
    """
    pairs = [(t, y) for t, labels in enumerate(spread.values()) for y in labels]
    parent, labels = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return labels, parent


def _graph(spread):
    return build_graph(*_assignment(spread))


def _nodes(g):
    """The labels some unit holds, ascending."""
    return np.flatnonzero(np.diagonal(g)) + 1


def _edges(g):
    """(m, 2) label pairs (a, b) with a < b, by rows."""
    return np.argwhere(np.triu(g, 1)) + 1


def _merged(spread, reachable):
    """(positives, refined) of one merge mode on a spread whose labels are 1..n."""
    return merge_positives(_graph(spread), reachable)


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
        direct, _ = merge_positives(g, False)
        reach, _ = merge_positives(g, True)
        assert np.array_equal(direct, positive_mask(direct_positive_sets(every, edges), n))
        assert np.array_equal(reach, positive_mask(reachable_positive_sets(every, edges)[0], n))


def test_direct_positive_sets_chain():
    positives, refined = _merged({"A": [1, 2], "B": [2, 3]}, reachable=False)
    assert np.array_equal(positives, positive_mask({1: {1, 2}, 2: {1, 2, 3}, 3: {2, 3}}, 3))
    assert refined is None


def test_direct_positive_sets_isolated_and_symmetric():
    positives, _ = _merged({"A": [1], "B": [2, 3]}, reachable=False)
    assert np.flatnonzero(positives[0]).tolist() == [0]  # P(1) = {1}
    assert np.array_equal(positives, positives.T)


def test_reachable_positive_sets_chain_single_component():
    positives, refined = _merged({"A": [1, 2], "B": [2, 3]}, reachable=True)
    assert positives.all()  # P(1) = P(2) = P(3) = {1, 2, 3}
    assert refined[0] == refined[1] == refined[2] == 1


def test_reachable_positive_sets_disjoint_edges():
    positives, refined = _merged({"A": [1, 2], "B": [3, 4]}, reachable=True)
    assert np.array_equal(positives, positive_mask({1: {1, 2}, 2: {1, 2}, 3: {3, 4}, 4: {3, 4}}, 4))
    assert refined.dtype == np.int64 and refined.tolist() == [1, 1, 2, 2]


def test_reachable_positive_sets_no_edges_singletons():
    positives, refined = _merged({"A": [1], "B": [2], "C": [3]}, reachable=True)
    assert np.array_equal(positives, np.eye(3, dtype=bool))
    assert sorted(refined.tolist()) == [1, 2, 3]


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
        positives, refined = merge_positives(g, True)
        expected = bfs_components(nodes, edges)
        assert np.array_equal(positives, component_mask(expected, len(nodes)))
        refined = refined.tolist()
        # refined ids are exactly 1.. in order of each component's smallest member
        by_smallest = sorted(expected, key=min)
        assert dict(enumerate(refined, start=1)) == {
            c: i for i, comp in enumerate(by_smallest, start=1) for c in comp}


def test_direct_subset_of_reachable_random_graphs():
    rng = np.random.default_rng(13)
    for _ in range(60):
        g, _, _ = _random_graph(rng, max_nodes=120)
        assert np.all(merge_positives(g, False)[0] <= merge_positives(g, True)[0])


def test_merge_positives_matches_dict_oracles_random_graphs():
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
        direct = LabelState((), labels, *merge_positives(g, False))
        reach = LabelState((), labels, *merge_positives(g, True))
        direct_sets = direct_positive_sets(nodes, edges)
        reach_sets, refined = reachable_positive_sets(nodes, edges)
        assert np.array_equal(direct.positives, positive_mask(direct_sets, n))
        assert np.array_equal(reach.positives, positive_mask(reach_sets, n))
        assert np.array_equal(reach.refined, np.array([refined[y] for y in range(1, n + 1)],
                                                      dtype=np.int64))
        assert direct.refined is None and direct.check() == [] and reach.check() == []


def test_progressive_switch():
    # the chain A-B under the default schedule: DIRECT before the switch epoch, REACHABLE from it
    switch = TrainConfig().merge_switch_epoch
    labels, parent = _assignment({"A": [1, 2], "B": [2, 3]})
    g = build_graph(labels, parent)
    early, at_switch, late = (LabelState((), labels, *merge_positives(g, epoch >= switch))
                              for epoch in (1, switch, 3 * switch))
    assert early.mode == MODE_DIRECT and early.refined is None and early.check() == []
    assert early.positive_sets[1] == frozenset({1, 2})  # no chaining through label 2
    assert at_switch.mode == MODE_REACHABLE and at_switch.check() == []
    assert at_switch.positive_sets[1] == frozenset({1, 2, 3})
    assert late.mode == MODE_REACHABLE


def test_random_label_states_satisfy_invariants():
    rng = np.random.default_rng(29)
    for _ in range(40):
        spread = {
            f"t{i}": [int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 5)))]
            for i in range(int(rng.integers(1, 12)))
        }
        labels, parent = _assignment(spread)
        g = build_graph(labels, parent)
        epoch = int(rng.integers(1, 10))  # DIRECT before a switch at epoch 5, then REACHABLE
        state = LabelState((), labels, *merge_positives(g, epoch >= 5))
        assert state.check() == []
