"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately avoid sharing code paths with the package: reachability
closures use boolean matrix powers, AP and Jaccard distances are computed by
direct enumeration, and gradients come from central finite differences.
"""

import numpy as np


def dbscan_closure(dist, eps, min_samples):
    """Reachability-closure density clustering, label values canonicalized.

    Returns a partition as a tuple of frozensets plus the outlier set, so it
    can be compared to any labeling up to label permutation.
    """
    dist = np.asarray(dist)
    n = dist.shape[0]
    adj = dist <= eps
    core = adj.sum(axis=1) >= min_samples
    # transitive closure over core-core adjacency
    closure = np.logical_and(adj, np.logical_and(core[:, None], core[None, :]))
    np.fill_diagonal(closure, True)
    changed = True
    while changed:
        nxt = closure | (closure @ closure)
        changed = not np.array_equal(nxt, closure)
        closure = nxt
    clusters = []
    assigned = np.full(n, -1)
    for i in range(n):
        if not core[i] or assigned[i] >= 0:
            continue
        members = set(np.flatnonzero(closure[i] & core))
        cid = len(clusters)
        for m in members:
            assigned[m] = cid
        clusters.append(members)
    for i in range(n):
        if core[i] or assigned[i] >= 0:
            continue
        for j in range(n):
            if core[j] and adj[i, j]:
                assigned[i] = assigned[j]
                clusters[assigned[i]].add(i)
                break
    outliers = frozenset(np.flatnonzero(assigned < 0))
    return frozenset(frozenset(c) for c in clusters), outliers


def jaccard_pairwise(W):
    """Weighted Jaccard distance by direct per-pair enumeration.

    d(i, j) = 1 - sum(min) / sum(max) over the two weight rows, and 0 when
    both rows are empty.
    """
    W = np.asarray(W, dtype=np.float64)
    n = W.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            lo = np.minimum(W[i], W[j]).sum()
            hi = np.maximum(W[i], W[j]).sum()
            out[i, j] = 1.0 - lo / hi if hi > 0.0 else 0.0
    return out


def k_reciprocal_weights(features, k1, k2):
    """k-reciprocal neighbor weight rows by per-unit set operations.

    Ranks come from a stable sort of the cosine distances with self first.
    Each unit's reciprocal k1 set takes in the reciprocal round(k1 / 2) set of
    every member when 2/3 of that set lies inside it; the union is weighted by
    exp(-distance) normalised to sum 1, and each row is then averaged with
    those of its k2 nearest units.
    """
    f = np.asarray(features, dtype=np.float64)
    n = f.shape[0]
    dist = 1.0 - f @ f.T
    dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    np.clip(dist, 0.0, 2.0, out=dist)
    ranking = dist.copy()
    np.fill_diagonal(ranking, -1.0)
    rank = np.argsort(ranking, axis=1, kind="stable")

    def reciprocal(i, k):
        forward = rank[i, : k + 1]
        return forward[np.any(rank[forward, : k + 1] == i, axis=1)]

    half = int(np.around(k1 / 2))
    nn_k1 = [reciprocal(i, k1) for i in range(n)]
    nn_half = [reciprocal(i, half) for i in range(n)]
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
        W = W[rank[:, :k2]].mean(axis=1)
    return W


def partition_of(labels, outlier=0):
    """Canonical partition view of a label array (ignoring label names)."""
    labels = np.asarray(labels)
    groups = {}
    for i, y in enumerate(labels):
        if y != outlier:
            groups.setdefault(y, set()).add(i)
    outliers = frozenset(np.flatnonzero(labels == outlier))
    return frozenset(frozenset(g) for g in groups.values()), outliers


def bfs_components(nodes, edges):
    """Connected components by plain breadth-first search."""
    adjacency = {v: set() for v in nodes}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    components = []
    for start in sorted(nodes):
        if start in seen:
            continue
        queue = [start]
        comp = {start}
        seen.add(start)
        while queue:
            v = queue.pop(0)
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        components.append(frozenset(comp))
    return frozenset(components)


def average_precision_enum(query_id, order_ids):
    """Textbook AP: enumerate ranks, average precision at each relevant hit."""
    hits = 0
    precisions = []
    for rank, gid in enumerate(order_ids, start=1):
        if gid == query_id:
            hits += 1
            precisions.append(hits / rank)
    if not precisions:
        return None
    return sum(precisions) / len(precisions)


def softmax_cross_entropy(v, label, rows, temperature):
    """Plain InfoNCE: cross entropy of softmax(rows @ v / T) against ``label``.

    Returns (value, gradient with respect to v); ``label`` counts from 1.
    """
    rows = np.asarray(rows, dtype=np.float64)
    z = rows @ np.asarray(v, dtype=np.float64) / temperature
    log_total = np.logaddexp.reduce(z)
    p = np.exp(z - log_total)
    p[label - 1] -= 1.0
    return float(log_total - z[label - 1]), rows.T @ p / temperature


def central_difference_grad(f, x, step=1e-6):
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        hi = f(x)
        xf[i] = orig - step
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * step)
    return grad


def relative_error(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom
