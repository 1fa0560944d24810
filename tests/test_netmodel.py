import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachenet.netmodel import (
    Catalog,
    DemandMatrix,
    DisconnectedGraphError,
    InvalidParameterError,
    Topology,
    all_pairs_hops,
    bfs_next_hop,
    build_demand,
    catalog_to_csv,
    demand_to_csv,
    generate_power_law_topology,
    save_topology,
    shortest_path,
    zipf_popularity,
)
from cachenet.optimizer import Instance
from cachenet.simnet import Scheme, SimConfig
from util import random_connected_edges, reference_all_pairs_hops, reference_next_hop


def brute_force_hops(n, edges):
    """Independent oracle: exhaustive simple-path enumeration."""
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    hop = np.full((n, n), -1)

    def paths_from(start):
        best = {start: 0}
        stack = [(start, {start}, 0)]
        while stack:
            node, seen, length = stack.pop()
            for nxt in adj[node]:
                if nxt in seen:
                    continue
                if nxt not in best or length + 1 < best[nxt]:
                    best[nxt] = length + 1
                stack.append((nxt, seen | {nxt}, length + 1))
        return best

    for s in range(n):
        best = paths_from(s)
        for t, d in best.items():
            hop[s, t] = d
    return hop


class TestTopologyGeneration:
    def test_two_nodes_single_edge(self):
        topo = generate_power_law_topology(2, 1, seed=123)
        assert topo.edges == frozenset({(0, 1)})
        assert topo.hop_matrix.tolist() == [[0, 1], [1, 0]]

    def test_desk_scale_edge_count(self):
        topo = generate_power_law_topology(64, 2, seed=7)
        assert topo.node_count == 64
        assert len(topo.edges) == 2 * 62 + 1
        # connectivity: every hop entry finite (all_pairs_hops would raise otherwise)
        assert np.all(topo.hop_matrix >= 0)

    def test_degree_skew(self):
        topo = generate_power_law_topology(64, 2, seed=7)
        deg = topo.degrees()
        assert deg.max() > np.median(deg)

    def test_deterministic_for_seed(self):
        a = generate_power_law_topology(30, 2, seed=5)
        b = generate_power_law_topology(30, 2, seed=5)
        assert a.edges == b.edges
        assert a.origin_attach == b.origin_attach

    def test_origin_is_highest_degree(self):
        topo = generate_power_law_topology(40, 2, seed=11)
        deg = topo.degrees()
        assert deg[topo.origin_attach] == deg.max()
        assert topo.origin_attach == int(np.argmax(deg))

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (0, 1)])
    def test_invalid_parameters(self, n, m):
        with pytest.raises(InvalidParameterError):
            generate_power_law_topology(n, m, seed=0)

    def test_no_self_loops_or_duplicates(self):
        topo = generate_power_law_topology(50, 3, seed=2)
        for u, v in topo.edges:
            assert u != v
            assert (v, u) not in topo.edges


PATH3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def topology(hop, origin_attach=0, origin_penalty=3):
    """A Topology over the routers of ``hop``, its hop-1 pairs as edges."""
    hop = np.asarray(hop)
    edges = frozenset((int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(hop == 1))))
    return Topology(edges, hop, origin_attach, origin_penalty)


def catalog(popularity):
    return Catalog(np.asarray(popularity, dtype=float))


# one constructor call per range check, and the start of the message it raises
REJECTED = {
    "config_objects": (lambda: SimConfig(Scheme.NO_CACHE, objects=0), "objects must be >= 1"),
    "config_nodes": (lambda: SimConfig(Scheme.NO_CACHE, nodes=2), "nodes must be >= 3$"),
    "config_huge_int": (lambda: SimConfig(Scheme.NO_CACHE, nodes=-10**400),
                        "nodes must be a 64-bit integer, got a 401-digit int$"),
    "config_epochs": (lambda: SimConfig(Scheme.NO_CACHE, epochs=0), "epochs must be positive"),
    "config_cache_fraction_zero": (lambda: SimConfig(Scheme.NO_CACHE, cache_fraction=0.0),
                                   r"cache_fraction must be in \(0, 1\]"),
    "config_cache_fraction_above_one": (lambda: SimConfig(Scheme.NO_CACHE, cache_fraction=1.5),
                                        r"cache_fraction must be in \(0, 1\]"),
    "topology_origin_penalty": (lambda: topology(PATH3, origin_penalty=-1), "origin_penalty must be nonnegative"),
    "topology_origin_attach_high": (lambda: topology(PATH3, origin_attach=3), "origin_attach out of range"),
    "topology_origin_attach_negative": (lambda: topology(PATH3, origin_attach=-1), "origin_attach out of range"),
    "topology_empty": (lambda: topology(np.zeros((0, 0), dtype=int)), "hop_matrix must be a nonempty"),
    "topology_hop_total": (lambda: topology(PATH3, origin_penalty=2**53 - 1),
                           r"hop_matrix.max\(\) \+ origin_penalty must be <= 2\*\*53"),
    "topology_edges": (lambda: Topology(frozenset({(0, 1), (1, 2)}), np.array([[0, 1], [1, 0]]), 0),
                       "edges must be the hop matrix's hop-1 pairs"),
    "config_hop_total": (lambda: SimConfig(Scheme.NO_CACHE, nodes=8, objects=10, requests_per_epoch=100,
                                           epochs=2**53 // 1000 + 1, warmup_epochs=0), "hop total: "),
    "catalog_popularity_sum": (lambda: catalog([0.5, 0.4]), "popularity must sum to 1"),
    "catalog_empty": (lambda: catalog([]), "popularity must be a nonempty vector"),
    "demand_all_zero": (lambda: DemandMatrix(np.zeros((2, 3))), "at least one rate must be positive"),
    "instance_demand_shape": (lambda: Instance(topology(PATH3), catalog([0.5, 0.5]),
                                               DemandMatrix(np.ones((3, 3))), 1.0), "demand shape does not match"),
    "generator_m_attach": (lambda: generate_power_law_topology(4, 0, seed=0), "m_attach must be >= 1"),
}


class TestConstructorChecks:
    """Public constructors reject input that would run to impossible numbers."""

    @pytest.mark.parametrize("case", REJECTED)
    def test_rejects_out_of_range(self, case):
        build, message = REJECTED[case]
        with pytest.raises(ValueError, match="^" + message):
            build()

    @pytest.mark.parametrize("hop", [
        [[0, -1, -2], [-1, 0, -1], [-2, -1, 0]],  # solved to a negative cost
        [[0, 1, 2], [1, 0, 1]],  # 2 x 3
        [[0, 1, 2], [1, 0, 1], [1, 1, 0]],  # asymmetric
        [[1, 1, 2], [1, 0, 1], [2, 1, 0]],  # nonzero diagonal
        [[0, 0, 2], [0, 0, 1], [2, 1, 0]],  # two routers at distance 0
        [[0.0, 1.5, 2.0], [1.5, 0.0, 1.0], [2.0, 1.0, 0.0]],  # not integers
    ], ids=["negative", "shape", "asymmetric", "diagonal", "zero_off_diagonal", "float"])
    def test_topology_rejects_hop_matrix(self, hop):
        edges = frozenset({(0, 1), (1, 2)})
        Topology(edges, np.array(PATH3), 0)  # the valid matrix passes
        with pytest.raises(InvalidParameterError):
            Topology(edges, np.array(hop), 0)

    def test_topology_edges_in_either_order(self):
        """Edges are unordered pairs: reversed pairs name the same hop-1 pairs,
        and a pair the hop matrix does not hold is rejected."""
        topo = Topology(frozenset({(1, 0), (2, 1)}), np.array(PATH3), 0)
        assert topo.degrees().tolist() == [1, 2, 1]
        with pytest.raises(InvalidParameterError, match="hop-1 pairs"):
            Topology(frozenset({(0, 1), (1, 2), (0, 2)}), np.array(PATH3), 0)

    def test_topology_hop_total_at_bound(self):
        assert topology(PATH3, origin_penalty=2**53 - 2).origin_distances.max() == 2**53

    @pytest.mark.parametrize("popularity", [[np.nan, np.nan], [1.5, -0.5], [[0.5, 0.5]]],
                             ids=["nan_popularity", "negative_popularity", "matrix_popularity"])
    def test_catalog_rejects(self, popularity):
        with pytest.raises(InvalidParameterError):
            Catalog(np.array(popularity))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_demand_rejects_non_finite_rates(self, bad):
        with pytest.raises(InvalidParameterError):
            DemandMatrix(np.array([[bad, 1.0], [0.0, 1.0]]))


class TestAllPairsHops:
    def test_path_graph(self):
        hop = all_pairs_hops(3, {(0, 1), (1, 2)})
        assert hop[0, 2] == 2

    def test_zero_diagonal(self):
        hop = all_pairs_hops(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
        assert np.all(np.diag(hop) == 0)

    def test_four_cycle(self):
        hop = all_pairs_hops(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
        assert hop[0, 2] == 2

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            all_pairs_hops(4, {(0, 1), (2, 3)})

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_oracle_small(self, seed):
        n = 4 + seed % 5  # up to 8 nodes
        topo = generate_power_law_topology(n, 2 if n > 2 else 1, seed=seed)
        assert np.array_equal(topo.hop_matrix, brute_force_hops(n, topo.edges))

    @pytest.mark.parametrize("n, m_attach", [(n, m) for n in (2, 3, 17, 64, 300) for m in (1, 2, 3)
                                             if n >= m + 1])  # the generator's precondition
    def test_matches_deque_bfs_on_power_law(self, n, m_attach):
        for seed in range(3):
            topo = generate_power_law_topology(n, m_attach, seed=seed)
            hop = all_pairs_hops(n, topo.edges)
            assert hop.dtype == int
            assert np.array_equal(hop, reference_all_pairs_hops(n, topo.edges))

    def test_matches_deque_bfs_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            edges = random_connected_edges(rng, n)
            assert np.array_equal(all_pairs_hops(n, edges), reference_all_pairs_hops(n, edges))

    def test_disconnected_message_matches_deque_bfs(self):
        rng = np.random.default_rng(18)
        cases = [(4, {(0, 1), (2, 3)}), (3, {(1, 2)}), (2, set())]
        for _ in range(20):  # two random components, labels shuffled
            a, b = (int(k) for k in rng.integers(1, 10, size=2))
            edges = random_connected_edges(rng, a) | {(u + a, v + a) for u, v in random_connected_edges(rng, b)}
            label = rng.permutation(a + b)
            cases.append((a + b, {tuple(sorted((int(label[u]), int(label[v])))) for u, v in edges}))
        for n, edges in cases:
            with pytest.raises(DisconnectedGraphError) as expected:
                reference_all_pairs_hops(n, edges)
            with pytest.raises(DisconnectedGraphError) as got:
                all_pairs_hops(n, edges)
            assert str(got.value) == str(expected.value)

    def test_symmetry_and_triangle(self):
        topo = generate_power_law_topology(20, 2, seed=4)
        hop = topo.hop_matrix
        assert np.array_equal(hop, hop.T)
        for i, j, k in itertools.product(range(8), repeat=3):
            assert hop[i, j] <= hop[i, k] + hop[k, j]


class TestNextHop:
    def test_paths_are_shortest(self):
        topo = generate_power_law_topology(15, 2, seed=9)
        nxt = bfs_next_hop(topo.hop_matrix)
        edge_set = topo.edges
        for s in range(topo.node_count):
            for t in range(topo.node_count):
                path = shortest_path(nxt, s, t)
                assert len(path) - 1 == topo.hop_matrix[s, t]
                for u, v in zip(path, path[1:]):
                    assert (min(u, v), max(u, v)) in edge_set

    def test_tie_breaks_to_lowest_neighbor(self):
        # 4-cycle 0-1, 0-2, 1-3, 2-3: both ways round are shortest
        edges = frozenset({(0, 1), (0, 2), (1, 3), (2, 3)})
        nxt = bfs_next_hop(all_pairs_hops(4, edges))
        assert nxt[0, 3] == 1
        assert nxt[3, 0] == 1

    def test_matches_reference(self):
        graphs = [(n, generate_power_law_topology(n, m_attach, seed=seed).edges)
                  for n in (2, 3, 4, 17, 64, 128, 300, 512) for m_attach in (1, 2, 3) if n >= m_attach + 1
                  for seed in range(3)]
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            graphs.append((n, random_connected_edges(rng, n)))
        for n, edges in graphs:
            assert np.array_equal(bfs_next_hop(all_pairs_hops(n, edges)), reference_next_hop(n, edges))


class TestZipf:
    def test_alpha_zero_is_uniform(self):
        assert np.allclose(zipf_popularity(4, 0.0), [0.25] * 4)

    def test_rank_ratio(self):
        p = zipf_popularity(200, 0.8)
        assert p[0] / p[1] == pytest.approx(2 ** 0.8, abs=1e-6)

    def test_single_object(self):
        assert zipf_popularity(1, 2.5).tolist() == [1.0]

    @pytest.mark.parametrize("bad", [(0, 1.0), (5, -0.1)])
    def test_invalid(self, bad):
        with pytest.raises(InvalidParameterError):
            zipf_popularity(*bad)

    @given(m=st.integers(2, 500), alpha=st.floats(0, 3, allow_nan=False))
    @settings(max_examples=50)
    def test_sums_to_one_and_monotone(self, m, alpha):
        p = zipf_popularity(m, alpha)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(p) <= 1e-15)
        assert np.all(p > 0)

    @given(m=st.integers(2, 100), alpha=st.floats(0, 2, allow_nan=False))
    @settings(max_examples=50)
    def test_skew_increases_head(self, m, alpha):
        assert zipf_popularity(m, alpha + 0.5)[0] > zipf_popularity(m, alpha)[0]


class TestDemand:
    def test_uniform_split(self):
        topo = generate_power_law_topology(2, 1, seed=0)
        cat = Catalog(zipf_popularity(2, 0.0))
        dem = build_demand(topo, cat)
        assert np.allclose(dem.rates, 0.5)

    def test_row_sums_equal_rate(self):
        topo = generate_power_law_topology(64, 2, seed=7)
        cat = Catalog(zipf_popularity(200, 0.8))
        dem = build_demand(topo, cat)
        assert np.allclose(dem.rates.sum(axis=1), 1.0)

    def test_column_totals(self):
        topo = generate_power_law_topology(3, 1, seed=0)
        cat = Catalog(zipf_popularity(2, 1.0))
        dem = build_demand(topo, cat)
        assert np.allclose(dem.rates.sum(axis=0), [2.0, 1.0])

    def test_proportionality(self):
        topo = generate_power_law_topology(5, 2, seed=1)
        cat = Catalog(zipf_popularity(6, 1.3))
        dem = build_demand(topo, cat)
        p = cat.popularity
        for i in range(5):
            assert dem.rates[i, 0] / dem.rates[i, 3] == pytest.approx(p[0] / p[3])


class TestInterchange:
    def test_topology_round_trip(self, tmp_path):
        topo = generate_power_law_topology(12, 2, seed=3)
        path = tmp_path / "topo.txt"
        save_topology(topo, path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"nodes 12 origin {topo.origin_attach} penalty 3"
        assert lines[1:] == [f"{u} {v}" for u, v in sorted(topo.edges)]

    def test_catalog_and_demand_csv(self, tmp_path):
        topo = generate_power_law_topology(3, 1, seed=0)
        cat = Catalog(zipf_popularity(4, 0.8))
        dem = build_demand(topo, cat)
        cat_path = tmp_path / "catalog.csv"
        dem_path = tmp_path / "demand.csv"
        catalog_to_csv(cat, cat_path)
        demand_to_csv(dem, dem_path)
        cat_lines = cat_path.read_text().splitlines()
        assert cat_lines[0] == "object,popularity"
        assert len(cat_lines) == 5
        dem_lines = dem_path.read_text().splitlines()
        assert dem_lines[0] == "node,object,rate"
        assert len(dem_lines) == 1 + 3 * 4
        # values round-trip through repr
        _, _, rate = dem_lines[1].split(",")
        assert float(rate) == dem.rates[0, 0]
