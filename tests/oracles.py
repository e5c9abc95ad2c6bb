"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately avoid sharing code paths with the package: the clustering
phase runs one numpy call per row, column or unit, reachability
closures use boolean matrix powers, the merge graph groups labels per
tracklet in dicts, positive sets are dicts of sets and their loss weights
are filled in one class at a time, cluster statistics are counted one label
at a time, DBSCAN labels come from a row-scanning frontier search, AP and
Jaccard distances are computed by direct enumeration, gradients come from
central finite differences, and the training step's loss, embedding and
bank updates run one sample at a time, each sample's frames from its own
scalar draw.
"""

from itertools import combinations

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


def dbscan_row_scan(dist, eps, min_samples):
    """Density clustering labels by a frontier search that scans a dense row per core point.

    Clusters are numbered 1.. in order of their first core index, and a
    non-core point joins its lowest-index core neighbour, so the labels
    themselves (not only the partition) are the reference.
    """
    adj = np.asarray(dist) <= eps
    core = adj.sum(axis=1) >= min_samples
    labels = np.zeros(adj.shape[0], dtype=np.int64)
    for i in np.flatnonzero(core):
        if labels[i]:
            continue
        labels[i] = labels.max() + 1
        frontier = [i]
        while frontier:
            reach = np.flatnonzero(adj[frontier.pop()] & core & (labels == 0))
            labels[reach] = labels[i]
            frontier.extend(reach.tolist())
    for i in np.flatnonzero(~core):
        claimers = np.flatnonzero(adj[i] & core)
        if claimers.size:
            labels[i] = labels[claimers[0]]
    return labels


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


def k_reciprocal_weights(dist, k1, k2):
    """k-reciprocal neighbor weight rows by per-unit set operations.

    ``dist`` is the cosine distance matrix the clustering path computes (its
    row blocks), so the weights are compared bit for bit. Ranks come from a
    stable sort of each row with self first. Each unit's reciprocal k1 set
    takes in the reciprocal round(k1 / 2) set of every member when 2/3 of
    that set lies inside it; the union is weighted by exp(-distance)
    normalised to sum 1, and each row is then averaged with those of its k2
    nearest units.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
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


# The clustering phase as it ran one numpy call per row, column or unit. The
# package's block operations make the same floating-point additions in the
# same order, so the tests require these bit for bit.


def nearest_by_lexsort(dist, k):
    """Each row's k nearest columns, self first, by a (row, distance, column) lexsort.

    ``dist`` has a zero diagonal; it is ranked with the diagonal at -1. Each
    row keeps its entries up to its k-th smallest value, minus the last ties
    by column at that value, so exactly k.
    """
    ranking = np.array(dist, dtype=np.float64)
    np.fill_diagonal(ranking, -1.0)
    kth = np.partition(ranking, k - 1, axis=1)[:, [k - 1]]
    keep = ranking <= kth
    extra = keep.sum(axis=1) - k
    for i in np.flatnonzero(extra):
        tied = np.flatnonzero(ranking[i] == kth[i, 0])
        keep[i, tied[-extra[i] :]] = False
    r, c = np.divmod(np.flatnonzero(keep), len(ranking))
    return c[np.lexsort((c, ranking[r, c], r))].reshape(-1, k)


def expansion_by_2d_index(initial_rank, k1):
    """The k1-reciprocal mask, expanded by members' half-sets, through 2-D fancy indexing."""
    n, half = initial_rank.shape[0], int(np.around(k1 / 2))

    def reciprocal(k):
        forward = initial_rank[:, : k + 1]
        own = np.arange(n)[:, None, None]
        return forward, (initial_rank[forward, : k + 1] == own).any(axis=2)

    halves, halves_ok = reciprocal(half)
    near, near_ok = reciprocal(k1)
    member = np.zeros((n, n), dtype=bool)
    member[np.nonzero(near_ok)[0], near[near_ok]] = True
    cand, cand_ok = halves[near], halves_ok[near]
    overlap = (member[np.arange(n)[:, None, None], cand] & cand_ok).sum(axis=2)
    accept = near_ok & (overlap >= (2.0 / 3.0) * cand_ok.sum(axis=2))
    take = accept[:, :, None] & cand_ok
    member[np.nonzero(take)[0], cand[take]] = True
    return member


def weights_by_row(dist, member, initial_rank, k2):
    """exp(-distance) over each row's expansion normalised one row at a time, then
    each row replaced by the mean of its k2 nearest rows, added one rank at a time."""
    n = len(dist)
    W = np.zeros((n, n))
    for i in range(n):
        expansion = np.flatnonzero(member[i])
        weights = np.exp(-dist[i, expansion])
        W[i, expansion] = weights / weights.sum()
    if k2 > 1:
        smooth = W[initial_rank[:, 0]]
        for col in initial_rank[:, 1:k2].T:
            smooth += W[col]
        W = smooth / k2
    return W


def jaccard_by_column(W):
    """Jaccard distances with sum(min) added by a fancy ``+=`` one column at a time."""
    W = np.asarray(W, dtype=np.float64)
    n = W.shape[0]
    out = np.zeros((n, n))
    flat = out.reshape(-1)
    for c in range(W.shape[1]):
        idx = np.flatnonzero(W[:, c])
        v = W[idx, c]
        flat[(idx[:, None] * n + idx).ravel()] += np.minimum.outer(v, v).ravel()
    rowsum = W.sum(axis=1)
    maxsum = np.add.outer(rowsum, rowsum) - out
    with np.errstate(invalid="ignore", divide="ignore"):
        out = 1.0 - out / maxsum
    out[maxsum <= 0.0] = 0.0
    return out


def unit_features_by_unit(encoded_by_tracklet, unit_frames):
    """Each unit's normalized mean encoding, one unit at a time.

    ``unit_frames`` pairs each unit's tracklet index with the indices of its
    frames in that tracklet's ``encoded_by_tracklet`` rows.
    """
    features = []
    for t, idx in unit_frames:
        mean = encoded_by_tracklet[t][idx].mean(axis=0)
        features.append(mean / np.linalg.norm(mean))
    return np.asarray(features)


def partition_array(length, stride):
    """A tracklet's inclusive (start, end) segment bounds as an (n, 2) int array: segments of
    ``stride`` frames, the remainder in the last one, one segment below one stride, and no
    rows for no frames."""
    if length == 0:
        return np.zeros((0, 2), dtype=np.int64)
    starts = stride * np.arange(max(length // stride, 1))
    return np.stack([starts, np.append(starts[1:], length) - 1], axis=1)


def unit_means_by_reshape(surviving, stride):
    """One tracklet's unit means: every segment but the last has ``stride`` frames, so one
    reduce over a (segments - 1, stride, dim) view sums them; the last is summed on its own."""
    n = len(partition_array(len(surviving), stride))
    head = (n - 1) * stride
    body = surviving[:head].reshape(n - 1, stride, surviving.shape[1])  # empty if n is 1
    return np.concatenate([np.add.reduce(body, axis=1) / stride,
                           np.add.reduce(surviving[head:], axis=0)[None] / (len(surviving) - head)])


def sample_frames_per_segment(segment_length, count, stride, rng):
    """One segment's ``count`` strided frame indices from one scalar start draw,
    wrapped modulo the length when the span does not fit."""
    span = (count - 1) * stride
    if span < segment_length:
        start = int(rng.integers(0, segment_length - span))
        return start + stride * np.arange(count)
    start = int(rng.integers(0, segment_length))
    return (start + stride * np.arange(count)) % segment_length


def class_means_by_class(features, labels):
    """Each class's normalized mean feature, classes 1..max(labels) one at a time."""
    n = int(labels.max())
    centroid = np.empty((n, features.shape[1]))
    for j in range(1, n + 1):
        centroid[j - 1] = features[labels == j].mean(axis=0)
    return centroid / np.linalg.norm(centroid, axis=1, keepdims=True)


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


def reachability_graph_by_tracklet(pairs, outlier=0):
    """(nodes, edges) of the reachability graph, by grouping labels per tracklet.

    ``pairs`` lists each unit's (tracklet id, label). Every tracklet whose
    non-outlier labels span several values links each pair of them.
    """
    per_tracklet = {}
    for tid, y in pairs:
        if y != outlier:
            per_tracklet.setdefault(tid, set()).add(y)
    edges = {edge for labels in per_tracklet.values() for edge in combinations(sorted(labels), 2)}
    return frozenset().union(*per_tracklet.values()), frozenset(edges)


def adjacency(n, edges):
    """The (n, n) bool adjacency over labels 1..n: the identity plus each edge both ways."""
    mask = np.eye(n, dtype=bool)
    for a, b in edges:
        mask[a - 1, b - 1] = mask[b - 1, a - 1] = True
    return mask


def positive_mask(positive_sets, n):
    """The (n, n) bool mask of a {label: positive labels} dict: row y - 1 marks P(y)."""
    mask = np.zeros((n, n), dtype=bool)
    for y, pos in positive_sets.items():
        mask[y - 1, [p - 1 for p in pos]] = True
    return mask


def component_mask(components, n):
    """The (n, n) bool mask that marks every pair of labels 1..n in one component."""
    mask = np.zeros((n, n), dtype=bool)
    for comp in components:
        idx = np.array(sorted(comp)) - 1
        mask[np.ix_(idx, idx)] = True
    return mask


def direct_positive_sets(nodes, edges):
    """P(c) = {c} plus c's one-hop neighbors, one dict entry per node."""
    psets = {c: {c} for c in nodes}
    for a, b in edges:
        psets[a].add(b)
        psets[b].add(a)
    return {c: frozenset(s) for c, s in psets.items()}


def reachable_positive_sets(nodes, edges):
    """(P, refined): P(c) is c's BFS component, refined[c] the component's id.

    Component ids count from 1 in order of each component's smallest member.
    """
    psets, refined = {}, {}
    for comp_id, comp in enumerate(sorted(bfs_components(nodes, edges), key=min), start=1):
        for c in comp:
            psets[c], refined[c] = comp, comp_id
    return psets, refined


def positive_weights_per_class(positive_sets, n, smoothing):
    """(weights, mask) of each class's positive set, filled in one class at a time.

    The anchor weighs 1 - smoothing + smoothing/K, each other positive
    smoothing/K and each negative 0; a class outside its own set is an error.
    """
    weights = np.zeros((n, n))
    mask = np.zeros((n, n), dtype=bool)
    for y in range(1, n + 1):
        pos = sorted(set(int(p) for p in positive_sets.get(y, ())))
        if y not in pos:
            raise ValueError("anchor label must belong to its positive set")
        if not all(1 <= p <= n for p in pos):
            raise ValueError("positive set outside 1..n")
        mask[y - 1, np.asarray(pos) - 1] = True
        weights[y - 1, mask[y - 1]] = smoothing / len(pos)
        weights[y - 1, y - 1] = 1.0 - smoothing + smoothing / len(pos)
    return weights, mask


def fixed_k_positive_sets(centroid, k):
    """Each class's k nearest centroids (self included), one stable sort per class.

    Every pick is added in both directions, so the sets stay symmetric.
    """
    n = centroid.shape[0]
    k = min(k, n)
    sims = centroid @ centroid.T
    psets = {y: {y} for y in range(1, n + 1)}
    for y in range(1, n + 1):
        order = np.argsort(-sims[y - 1], kind="stable")
        for j in order[:k]:
            psets[y].add(int(j) + 1)
            psets[int(j) + 1].add(y)
    return {y: frozenset(s) for y, s in psets.items()}


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


def cluster_stats_per_label(pseudo, gt, cams, outlier=0):
    """(correct, cross_camera, incorrect, total_identities), one label at a time.

    A label is correct when its members share one identity, and cross-camera
    when it is correct and its members span two or more cameras.
    """
    pseudo, gt, cams = np.asarray(pseudo), np.asarray(gt), np.asarray(cams)
    correct = cross = incorrect = 0
    for y in set(pseudo.tolist()) - {outlier}:
        members = pseudo == y
        if len(set(gt[members].tolist())) == 1:
            correct += 1
            cross += len(set(cams[members].tolist())) >= 2
        else:
            incorrect += 1
    return correct, cross, incorrect, len(set(gt.tolist()))


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


def csc_loss_per_sample(v, label, positives, rows, temperature, smoothing):
    """Class-smoothed contrastive loss of one embedding, one softmax per positive.

    Positive j of K carries weight 1 - smoothing + smoothing/K for the anchor
    and smoothing/K otherwise, over a denominator holding only that positive
    and the negatives. Returns (value, gradient with respect to v).
    """
    n = rows.shape[0]
    pos = sorted(set(int(p) for p in positives))
    if label not in pos:
        raise ValueError("anchor label must belong to its positive set")
    if not all(1 <= p <= n for p in pos):
        raise ValueError("positive set outside 1..n")
    k = len(pos)
    z = rows @ v / temperature
    pos_idx = np.asarray(pos) - 1
    neg_mask = np.ones(n, dtype=bool)
    neg_mask[pos_idx] = False
    z_neg = z[neg_mask]
    value = 0.0
    grad_z = np.zeros(n)
    for j in pos_idx:
        s_j = (1.0 - smoothing + smoothing / k) if j == label - 1 else smoothing / k
        logits = np.concatenate(([z[j]], z_neg))
        m = logits.max()
        exp_l = np.exp(logits - m)
        total = exp_l.sum()
        value -= s_j * (logits[0] - m - np.log(total))
        p = exp_l / total
        grad_z[j] -= s_j * (1.0 - p[0])
        grad_z[neg_mask] += s_j * p[1:]
    return float(value), rows.T @ grad_z / temperature


def combined_loss_per_sample(v, label, positives, banks, cfg):
    """Weighted sum of the per-sample losses against the hard and centroid banks."""
    hard = csc_loss_per_sample(v, label, positives, banks.hard, cfg.temperature, cfg.smoothing)
    cent = csc_loss_per_sample(v, label, positives, banks.centroid, cfg.temperature,
                               cfg.smoothing)
    return (cfg.hard_weight * hard[0] + cfg.centroid_weight * cent[0],
            cfg.hard_weight * hard[1] + cfg.centroid_weight * cent[1])


def embed_with_cache(weights, raw_frames):
    """One sample's forward pass: normalized mean of normalized frame encodings."""
    X = np.asarray(raw_frames, dtype=np.float64)
    U = X @ weights
    u_norms = np.linalg.norm(U, axis=1, keepdims=True)
    G = U / u_norms
    mean = G.mean(axis=0)
    m_norm = np.linalg.norm(mean)
    v = mean / m_norm
    return v, (X, G, u_norms, v, m_norm)


def backprop_to_weights(grad_v, cache):
    """One sample's backward pass from d(loss)/dv to d(loss)/d(weights)."""
    X, G, u_norms, v, m_norm = cache
    g_mean = (grad_v - (grad_v @ v) * v) / m_norm
    gG = np.broadcast_to(g_mean / X.shape[0], G.shape)
    gU = (gG - (gG * G).sum(axis=1, keepdims=True) * G) / u_norms
    return X.T @ gU


def batch_by_label(batch):
    """Batch samples grouped by label, in batch order within each label."""
    grouped = {}
    for v, y in batch:
        grouped.setdefault(int(y), []).append(np.asarray(v, dtype=np.float64))
    return grouped


def _momentum_row(row, target, momentum):
    row = momentum * row + (1.0 - momentum) * target
    return row / np.linalg.norm(row)


def update_centroid_per_sample(centroid, batch, momentum):
    """Centroid rows after moving each batch class toward its batch mean."""
    centroid = np.array(centroid, dtype=np.float64)
    for y, members in batch_by_label(batch).items():
        centroid[y - 1] = _momentum_row(centroid[y - 1], np.mean(members, axis=0), momentum)
    return centroid


def update_hard_memory_per_sample(hard, batch, momentum):
    """Hard rows after moving each batch class toward its least similar sample.

    The first sample with the smallest cosine similarity wins a tie.
    """
    hard = np.array(hard, dtype=np.float64)
    for y, members in batch_by_label(batch).items():
        sims = [float(m @ hard[y - 1]) / np.linalg.norm(m) for m in members]
        hard[y - 1] = _momentum_row(hard[y - 1], members[int(np.argmin(sims))], momentum)
    return hard


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
