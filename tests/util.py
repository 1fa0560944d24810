"""Shared helpers: tiny randomized instances sized for the exhaustive solver,
and reference algorithms kept as oracles."""

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
from cachenet.optimizer import ORIGIN, Instance


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
    c_sum = float(rng.integers(0, c_max + 1))
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
