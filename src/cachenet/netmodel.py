"""Network instance construction: topology, content catalog, and demand.

Builds the three inputs every other module consumes: a seeded power-law
router topology with an all-pairs hop matrix, a rank-ordered Zipf content
catalog, and the per-node per-object request-rate matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidParameterError",
    "DisconnectedGraphError",
    "Topology",
    "Catalog",
    "DemandMatrix",
    "generate_power_law_topology",
    "all_pairs_hops",
    "bfs_next_hop",
    "shortest_path",
    "zipf_popularity",
    "build_demand",
    "save_topology",
    "catalog_to_csv",
    "demand_to_csv",
]


class InvalidParameterError(ValueError):
    """A construction parameter violates its precondition."""


class DisconnectedGraphError(ValueError):
    """Some node pair has no connecting path."""


@dataclass(eq=False)
class Topology:
    """Undirected connected graph over the routers that index ``hop_matrix``,
    plus a virtual origin attachment.

    The origin server is not a member of the router set: it permanently
    holds every object, consumes no cache budget, and is reachable from
    router ``i`` at ``hop_matrix[i, origin_attach] + origin_penalty`` hops.
    """

    edges: frozenset
    hop_matrix: np.ndarray
    origin_attach: int
    origin_penalty: int = 3

    def __post_init__(self):
        hop = np.asarray(self.hop_matrix)  # symmetric, as nearest_copy reads row j as distances to j
        if (hop.ndim != 2 or hop.size == 0 or hop.dtype.kind not in "iu" or not np.array_equal(hop, hop.T)
                or not np.array_equal(hop == 0, np.eye(len(hop), dtype=bool)) or hop.min() < 0):
            raise InvalidParameterError("hop_matrix must be a nonempty symmetric integer square matrix, "
                                        "zero on the diagonal and >= 1 elsewhere")
        if self.origin_penalty < 0:
            raise InvalidParameterError("origin_penalty must be nonnegative")
        if not (0 <= self.origin_attach < len(hop)):
            raise InvalidParameterError("origin_attach out of range")

    @property
    def node_count(self) -> int:
        return len(self.hop_matrix)

    @property
    def origin_distances(self) -> np.ndarray:
        """Hop count from every router to the virtual origin."""
        return self.hop_matrix[:, self.origin_attach] + self.origin_penalty

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.node_count, dtype=int)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass(eq=False)
class Catalog:
    """Content objects, one per entry of ``sizes``, and their rank-ordered popularity."""

    sizes: np.ndarray
    popularity: np.ndarray

    def __post_init__(self):
        if np.ndim(self.sizes) != 1 or np.size(self.sizes) == 0 or np.shape(self.popularity) != np.shape(self.sizes):
            raise InvalidParameterError("sizes and popularity must be nonempty vectors of one length")
        if not np.all(np.isfinite(self.sizes) & (self.sizes > 0)):
            raise InvalidParameterError("all object sizes must be positive and finite")
        if not np.all(np.isfinite(self.popularity) & (self.popularity >= 0)):
            raise InvalidParameterError("popularity must be finite and nonnegative")
        if abs(float(self.popularity.sum()) - 1.0) > 1e-9:
            raise InvalidParameterError("popularity must sum to 1")
        if np.any(np.diff(self.popularity) > 1e-12):
            raise InvalidParameterError("popularity must be non-increasing")

    @property
    def object_count(self) -> int:
        return len(self.sizes)

    @classmethod
    def uniform_sizes(cls, object_count: int, alpha: float) -> "Catalog":
        return cls(np.ones(object_count), zipf_popularity(object_count, alpha))


@dataclass(eq=False)
class DemandMatrix:
    """Request rates per (router, object), in requests per epoch."""

    rates: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.rates) & (self.rates >= 0)):
            raise InvalidParameterError("rates must be finite and nonnegative")
        if not np.any(self.rates > 0):
            raise InvalidParameterError("at least one rate must be positive")


def all_pairs_hops(node_count: int, edges) -> np.ndarray:
    """Shortest-path hop counts by one BFS from all nodes at once: level by
    level, a node joins a source's frontier when a neighbour is on it.

    Raises DisconnectedGraphError if any pair is unreachable.
    """
    # 0/1 adjacency; float32 sums of its rows stay exact below 2**24 nodes
    adj = np.zeros((node_count, node_count), dtype=np.float32)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    hop = np.zeros((node_count, node_count), dtype=int)
    reached = np.eye(node_count, dtype=bool)
    frontier = reached
    level = 0
    while frontier.any():
        level += 1
        frontier = (frontier.astype(np.float32) @ adj > 0) & ~reached
        hop[frontier] = level
        reached |= frontier
    unreached = ~reached.all(axis=1)
    if unreached.any():
        raise DisconnectedGraphError(f"node {int(unreached.argmax())} cannot reach every node")
    return hop


def bfs_next_hop(hop_matrix: np.ndarray) -> np.ndarray:
    """next_hop[s, t] = first router on a shortest path from s to t, read from
    a connected graph's hop matrix, whose hop-1 entries are the adjacency.

    Deterministic: the lowest-index neighbor u of s with
    hop[u, t] == hop[s, t] - 1, which is the first hop in the BFS tree that
    expands neighbors in ascending index order. next_hop[s, s] = s.
    """
    node_count = len(hop_matrix)
    nxt = np.empty((node_count, node_count), dtype=int)
    for s in range(node_count):
        nbrs = np.flatnonzero(hop_matrix[s] == 1)  # ascending
        closer = hop_matrix[nbrs] == hop_matrix[s] - 1  # closer[a, t]: nbrs[a] is one hop nearer t
        nxt[s] = nbrs[closer.argmax(axis=0)] if nbrs.size else s  # argmax takes the lowest index
        nxt[s, s] = s
    return nxt


def shortest_path(next_hop: np.ndarray, source: int, target: int) -> list:
    """Node sequence from source to target, endpoints included."""
    path = [source]
    u = source
    while u != target:
        u = int(next_hop[u, target])
        path.append(u)
    return path


def generate_power_law_topology(n: int, m_attach: int, seed: int, origin_penalty: int = Topology.origin_penalty) -> Topology:
    """Seeded preferential-attachment graph over ``n`` routers.

    Starts from a path over max(2, m_attach) seed nodes; each later node
    attaches ``m_attach`` distinct edges, targets drawn proportionally to
    current degree. The virtual origin attaches, ``origin_penalty`` hops
    out, at the highest-degree router (ties broken toward the lowest index).
    """
    if m_attach < 1:
        raise InvalidParameterError("m_attach must be >= 1")
    if n < max(2, m_attach + 1):
        raise InvalidParameterError(f"n must be >= max(2, m_attach + 1) = {max(2, m_attach + 1)}")
    rng = np.random.default_rng(seed)
    seed_size = max(2, m_attach)
    edges = {(i, i + 1) for i in range(seed_size - 1)}
    # each node appears once per incident edge; sampling from this list is
    # sampling proportionally to degree
    stubs = []
    for u, v in sorted(edges):
        stubs.extend((u, v))
    for new in range(seed_size, n):
        targets: set = set()
        while len(targets) < m_attach:
            targets.add(stubs[rng.integers(len(stubs))])
        for t in sorted(targets):
            edges.add((t, new))
            stubs.extend((t, new))
    expected = (seed_size - 1) + (n - seed_size) * m_attach
    if len(edges) != expected:
        raise RuntimeError(f"attachment rule fixes the edge count at {expected}, built {len(edges)}")
    origin_attach = int(np.argmax(np.bincount(stubs, minlength=n)))  # stubs count degrees; lowest index on ties
    return Topology(frozenset(edges), all_pairs_hops(n, edges), origin_attach, origin_penalty)


def zipf_popularity(m: int, alpha: float) -> np.ndarray:
    """Rank-ordered Zipf probabilities p_k proportional to k**(-alpha)."""
    if m < 1:
        raise InvalidParameterError("object count must be >= 1")
    if alpha < 0:
        raise InvalidParameterError("alpha must be nonnegative")
    ranks = np.arange(1, m + 1, dtype=float)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


def build_demand(topology: Topology, catalog: Catalog) -> DemandMatrix:
    """Spatially uniform demand: every router requests at unit total rate,
    split across objects by catalog popularity."""
    return DemandMatrix(np.tile(catalog.popularity, (topology.node_count, 1)))


# --- plain-text / CSV interchange -----------------------------------------

def save_topology(topology: Topology, path) -> None:
    """Edge-list text format: header 'nodes N origin A penalty P', then one
    'i j' pair per line."""
    with open(path, "w") as fh:
        fh.write(f"nodes {topology.node_count} origin {topology.origin_attach} "
                 f"penalty {topology.origin_penalty}\n")
        for u, v in sorted(topology.edges):
            fh.write(f"{u} {v}\n")


def catalog_to_csv(catalog: Catalog, path) -> None:
    with open(path, "w") as fh:
        fh.write("object,size,popularity\n")
        for k in range(catalog.object_count):
            fh.write(f"{k},{float(catalog.sizes[k])!r},{float(catalog.popularity[k])!r}\n")


def demand_to_csv(demand: DemandMatrix, path) -> None:
    n, m = demand.rates.shape
    with open(path, "w") as fh:
        fh.write("node,object,rate\n")
        for i in range(n):
            for k in range(m):
                fh.write(f"{i},{k},{float(demand.rates[i, k])!r}\n")
