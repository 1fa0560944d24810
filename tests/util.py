"""Shared helpers: tiny randomized instances sized for the exhaustive solver,
and reference algorithms kept as oracles: the exhaustive solver, the
reference costs, and the desk-scale optimum certificate."""

import hashlib
import itertools
from collections import deque

import numpy as np

from cachenet.netmodel import (
    Catalog,
    DemandMatrix,
    DisconnectedGraphError,
    Topology,
    all_pairs_hops,
    zipf_popularity,
)
from cachenet.optimizer import ORIGIN, Instance, Placement, SolveResult, _budgets_from_usage, nearest_copy


def random_connected_edges(rng, n):
    """Random spanning tree plus a few extra edges."""
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u, v = rng.choice(n, size=2, replace=False)
        edges.add((min(u, v), max(u, v)))
    return frozenset(edges)


def random_instance(rng, n_max=4, m_max=5, c_max=4):
    """Random tiny instance within the exact solver's guard."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    while n * m > 20:
        m -= 1
    edges = random_connected_edges(rng, n)
    hop = all_pairs_hops(n, edges)
    topo = Topology(edges, hop, origin_attach=int(rng.integers(0, n)),
                    origin_penalty=int(rng.integers(0, 4)))
    alpha = float(rng.uniform(0, 1.5))
    catalog = Catalog(zipf_popularity(m, alpha))
    rates = rng.uniform(0.0, 5.0, size=(n, m))
    rates[int(rng.integers(0, n)), int(rng.integers(0, m))] += 1.0  # keep demand nonzero
    demand = DemandMatrix(rates)
    c_sum = int(rng.integers(0, c_max + 1))
    return Instance(topo, catalog, demand, c_sum)


def nearest_supplier(x, instance):
    """Brute-force supplier matrix of membership ``x``: supplier[i, k] is
    router i's nearest holder of object k, the lowest index among equals, or
    ORIGIN unless that holder is at most as far as the origin."""
    n, m = x.shape
    hop = instance.topology.hop_matrix.tolist()
    dorg = instance.topology.origin_distances.tolist()
    held = x.tolist()
    supplier = np.full((n, m), ORIGIN)
    for i in range(n):
        for k in range(m):
            holders = [j for j in range(n) if held[j][k]]
            if holders:
                j = min(holders, key=hop[i].__getitem__)  # the first, so the lowest index, of equals
                if hop[i][j] <= dorg[i]:
                    supplier[i, k] = j
    return supplier


def nearest_assignment(placement, instance):
    """The oracle's supplier matrix for ``placement``: supplier[i, k] serves object k to router i."""
    return nearest_supplier(placement.x, instance)


def evaluate_objective(supplier, instance):
    """Total hop-weighted traffic when supplier[i, k], a router or ORIGIN,
    serves object k to router i."""
    hop = instance.topology.hop_matrix
    dorg = instance.topology.origin_distances
    rows = np.arange(instance.n)[:, None]
    origin = supplier == ORIGIN
    dist = np.where(origin, dorg[:, None], hop[rows, np.where(origin, 0, supplier)])
    return float((instance.weights * dist).sum())


def placement_cost(placement, instance):
    """Total hop-weighted traffic of ``placement`` served from nearest copies."""
    return float((instance.weights * nearest_copy(placement.x, instance)).sum())


def placement_digest(placement):
    h = hashlib.sha256()
    h.update(np.packbits(placement.x).tobytes())
    h.update(np.asarray(placement.budgets, dtype=float).tobytes())
    return h.hexdigest()


class InstanceTooLargeError(ValueError):
    """Instance exceeds the exhaustive solver's enumeration guard."""


def exact_solve(instance):
    """Ground-truth solver: enumerate every placement within the pool, each
    scored by the brute-force supplier and objective oracles.

    Guarded to n*m <= 20 and c_sum <= 6. Returns the lexicographically
    smallest optimal membership matrix (flattened row-major).
    """
    n, m, c_sum = instance.n, instance.m, instance.c_sum
    if n * m > 20 or c_sum > 6:
        raise InstanceTooLargeError(f"exact_solve guard: n*m={n * m}, c_sum={c_sum}")

    def scored(combo):
        bits = np.zeros(n * m, dtype=bool)
        bits[list(combo)] = True
        x = bits.reshape(n, m)
        return evaluate_objective(nearest_supplier(x, instance), instance), tuple(bits.tolist())

    combos = itertools.chain.from_iterable(itertools.combinations(range(n * m), r) for r in range(c_sum + 1))
    cost, bits = min(map(scored, combos))
    x = np.array(bits).reshape(n, m)
    return SolveResult(Placement(x, _budgets_from_usage(x, c_sum)), cost)


def neighbour_lists(node_count, edges):
    """Each node's neighbours, in ascending order."""
    adj = [[] for _ in range(node_count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(nbrs) for nbrs in adj]


def reference_all_pairs_hops(node_count, edges):
    """Oracle for ``all_pairs_hops``: a deque BFS from one source at a time,
    raising for the first source that cannot reach every node."""
    adj = neighbour_lists(node_count, edges)
    hop = np.zeros((node_count, node_count), dtype=int)
    for s in range(node_count):
        dist = np.full(node_count, -1, dtype=int)
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if np.any(dist < 0):
            raise DisconnectedGraphError(f"node {s} cannot reach every node")
        hop[s] = dist
    return hop


def reference_next_hop(node_count, edges):
    """Oracle for ``bfs_next_hop``: for router s and target t, the lowest-index
    neighbour of s that is one hop nearer t by ``reference_all_pairs_hops``;
    s itself when t == s."""
    hop = reference_all_pairs_hops(node_count, edges).tolist()
    nxt = np.empty((node_count, node_count), dtype=int)
    for s, nbrs in enumerate(neighbour_lists(node_count, edges)):
        for t in range(node_count):
            nxt[s, t] = s if t == s else next(u for u in nbrs if hop[u][t] == hop[s][t] - 1)
    return nxt


def kmedian_curve(topology):
    """(g, opened): g[c] = the least total hops from every router to its
    nearest of at most c open routers or the origin, for c = 0..n, and
    opened[c] = the routers of one set that attains it.

    Each point is one ``scipy.optimize.milp`` solve of the assignment
    formulation of k-median with an origin (Cornuejols, Nemhauser & Wolsey
    1980): open y[j], assign z[i, j] <= y[j] or o[i] to the origin, one
    assignment per router, at most c open. Hop counts are whole, so g[c] is a
    whole number: the solve's objective must round to it within 1e-6, and its
    dual bound must lie within one hop, which proves no whole number below it
    is reachable."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    hop = topology.hop_matrix.astype(float)
    dorg = topology.origin_distances.astype(float)
    n = len(dorg)
    # variables: y[j] at j, z[i, j] at n + i * n + j, o[i] at n + n * n + i
    i, j = np.divmod(np.arange(n * n), n)
    z, o = n + np.arange(n * n), n + n * n + np.arange(n)
    rows = np.concatenate([i, np.arange(n), n + np.arange(n * n), n + np.arange(n * n), np.full(n, n + n * n)])
    cols = np.concatenate([z, o, z, j, np.arange(n)])
    vals = np.concatenate([np.ones(n * n + n), np.ones(n * n), -np.ones(n * n), np.ones(n)])
    a = coo_array((vals, (rows, cols)), shape=(n + n * n + 1, n + n * n + n)).tocsr()
    cost = np.concatenate([np.zeros(n), hop.ravel(), dorg])
    integrality = np.concatenate([np.ones(n), np.zeros(n * n + n)])
    lower = np.concatenate([np.ones(n), np.full(n * n, -np.inf), [0.0]])
    g, opened = [], []
    for c in range(n + 1):
        upper = np.concatenate([np.ones(n), np.zeros(n * n), [c]])
        res = milp(cost, constraints=LinearConstraint(a, lower, upper), integrality=integrality,
                   bounds=Bounds(0, 1))
        assert res.success, (c, res.message)
        whole = round(res.fun)
        assert abs(res.fun - whole) < 1e-6 and res.mip_dual_bound > whole - 1, (c, res.fun, res.mip_dual_bound)
        chosen = np.flatnonzero(res.x[:n] > 0.5)
        assert len(chosen) <= c
        assert np.minimum(hop[:, chosen].min(axis=1, initial=np.inf), dorg).sum() == whole, c
        g.append(whole)
        opened.append(chosen)
    return np.array(g, dtype=float), opened


def allocate_by_gain(weights, g, pool):
    """Copies per object, c[k] in 0..n with sum(c) <= pool, minimizing
    sum_k weights[k] * g[c[k]] for a convex g: the pool's best marginal
    gains, which take each object's copies in order."""
    gains = weights[:, None] * -np.diff(g)[None, :]  # gains[k, c] = the (c + 1)th copy of object k
    top = np.argsort(-gains, axis=None, kind="stable")[:pool]  # equal gains: the object's earlier copy first
    return np.bincount(top // gains.shape[1], minlength=len(weights))


def allocate_by_dp(weights, g, pool):
    """The same allocation for any g: a DP over objects on the pool."""
    n = len(g) - 1
    best = np.zeros(pool + 1)  # best[p] = least cost of the objects so far with at most p copies
    picks = []
    for w in weights:
        cand = np.full((n + 1, pool + 1), np.inf)
        for t in range(min(n, pool) + 1):
            cand[t, t:] = best[:pool + 1 - t] + w * g[t]
        picks.append(cand.argmin(axis=0))
        best = cand.min(axis=0)
    counts, p = [], pool
    for pick in reversed(picks):
        counts.append(int(pick[p]))
        p -= counts[-1]
    return np.array(counts[::-1])


def kmedian_optimum(instance, curve):
    """Optimal placement of an instance whose demand rows are all equal,
    given its topology's ``kmedian_curve``: with equal rows object k costs
    weights[k] * g[c] at its best c copies, so the optimum is the best
    split of the pool into per-object counts. Its cost is that sum."""
    w = instance.weights
    if not (w == w[0]).all():
        raise ValueError("the k-median certificate needs demand rows that are all equal")
    g, opened = curve
    convex = (np.diff(g, 2) >= 0).all()
    counts = (allocate_by_gain if convex else allocate_by_dp)(w[0], g, instance.c_sum)
    x = np.zeros((instance.n, instance.m), dtype=bool)
    for k, c in enumerate(counts):
        x[opened[c], k] = True
    return SolveResult(Placement(x, _budgets_from_usage(x, instance.c_sum)), float(w[0] @ g[counts]))
