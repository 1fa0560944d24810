import hashlib
import sys
from dataclasses import replace

import numpy as np
import pytest

from cachenet import optimizer, simnet
from cachenet.netmodel import (
    Catalog,
    DemandMatrix,
    InvalidParameterError,
    Topology,
    all_pairs_hops,
    build_demand,
    generate_power_law_topology,
    shortest_path,
    zipf_popularity,
)
from cachenet.optimizer import (
    ORIGIN,
    Instance,
    Placement,
    average_hops,
    nearest_copy,
    solve,
)
from cachenet.simnet import (
    Cache,
    EpochMetrics,
    NetworkState,
    Policy,
    Scheme,
    SimConfig,
    _ObjectDraw,
    _nearest_supplier,
    apply_placement,
    build_instance,
    deterministic_epoch,
    handle_request,
    run_epoch,
    run_simulation,
)
from util import evaluate_objective, nearest_assignment, nearest_supplier, random_instance, reference_next_hop


def path_instance(n, m, alpha=0.5, origin_attach=0, penalty=3, c_sum=0):
    edges = frozenset((i, i + 1) for i in range(n - 1))
    topo = Topology(edges, all_pairs_hops(n, edges), origin_attach, penalty)
    catalog = Catalog(zipf_popularity(m, alpha))
    rates = np.tile(catalog.popularity, (n, 1))
    return Instance(topo, catalog, DemandMatrix(rates), c_sum)


def installed(inst, x, budgets):
    """A state serving placement ``(x, budgets)``."""
    state = NetworkState(inst)
    apply_placement(state, Placement(x, np.asarray(budgets)))
    return state


class ReferenceLRU:
    """Dict LRU used as an oracle: insertion order is recency, oldest first;
    at most ``capacity`` objects, and none when it is below one."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = {}  # key -> None

    def touch(self, obj):
        self.items[obj] = self.items.pop(obj)

    def insert(self, obj):
        if obj in self.items or self.capacity < 1:
            return []
        evicted = []
        while len(self.items) + 1 > self.capacity:
            victim = next(iter(self.items))
            del self.items[victim]
            evicted.append(victim)
        self.items[obj] = None
        return evicted


class ReferenceLFU:
    """Linear-scan LFU used as an oracle: lowest count, ties to the lowest id;
    at most ``capacity`` objects, and none when it is below one."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = {}  # key -> [freq], in insertion order

    def touch(self, obj):
        self.items[obj][0] += 1

    def insert(self, obj):
        if obj in self.items or self.capacity < 1:
            return []
        evicted = []
        while len(self.items) + 1 > self.capacity:
            victim = min(self.items, key=lambda o: (self.items[o][0], o))
            del self.items[victim]
            evicted.append(victim)
        self.items[obj] = [1]
        return evicted


class ReferenceLCE:
    """The LCE request path without the reply-stop memo, used as an oracle: a
    walk of the next-hop table to the supplier, an insert at every stop with the
    supplier included, and holders read back from cache membership."""

    def __init__(self, inst, capacities, policy):
        self.topology = inst.topology
        make = ReferenceLRU if policy is Policy.LRU else ReferenceLFU
        self.caches = [make(c) for c in capacities]
        self.holders = [set() for _ in range(inst.m)]
        self.next_hop = reference_next_hop(inst.n, inst.topology.edges)
        self.admitted = self.evicted = self.refused = self.from_routers = 0

    def request(self, node, obj):
        """Serve one request; returns (hops, local hit)."""
        topo = self.topology
        if obj in self.caches[node].items:
            self.caches[node].touch(obj)
            return 0, True
        supplier, hops = ORIGIN, int(topo.origin_distances[node])
        if self.holders[obj]:  # nearest router, lowest index on ties; a router wins a tie with the origin
            d, j = min((int(topo.hop_matrix[node, j]), j) for j in self.holders[obj])
            if d <= hops:
                supplier, hops = j, d
                self.from_routers += 1
        tail = topo.origin_attach if supplier == ORIGIN else supplier
        for stop in shortest_path(self.next_hop, node, tail):
            had = obj in self.caches[stop].items
            evicted = self.caches[stop].insert(obj)
            if obj in self.caches[stop].items:
                self.holders[obj].add(stop)
                self.admitted += not had
            for victim in evicted:
                self.holders[victim].discard(stop)
            self.evicted += len(evicted)
            self.refused += self.caches[stop].capacity < 1
        return hops, False


class TestCache:
    def test_lru_matches_reference(self):
        rng = np.random.default_rng(0)
        for capacity in (1, 2, 5):
            cache = Cache(capacity, Policy.LRU)
            ref = ReferenceLRU(capacity)
            for obj in rng.integers(0, 8, size=400).tolist():
                if obj in cache:
                    assert obj in ref.items
                    cache.touch(obj)
                    ref.touch(obj)
                else:
                    assert cache.insert(obj) == ref.insert(obj)
                assert cache.residents() == list(ref.items)

    def test_lfu_evicts_least_frequent(self):
        cache = Cache(2, Policy.LFU)
        cache.insert(1)
        cache.touch(1)
        cache.touch(1)
        cache.insert(2)
        evicted = cache.insert(3)
        assert evicted == [2]
        assert sorted(cache.residents()) == [1, 3]

    def test_lfu_tie_breaks_to_lowest_id(self):
        cache = Cache(2, Policy.LFU)
        cache.insert(5)
        cache.insert(2)
        evicted = cache.insert(9)
        assert evicted == [2]

    def test_lfu_matches_linear_scan_reference(self):
        rng = np.random.default_rng(11)
        for trial in range(2000):
            capacity = int(rng.integers(1, 21))
            universe = int(rng.integers(2, 3 * capacity + 3))
            if trial % 4 < 2:  # Zipf-like: a few objects take most requests
                p = 1.0 / np.arange(1, universe + 1) ** rng.uniform(0.6, 1.4)
                stream = rng.choice(universe, size=150, p=p / p.sum())
            else:
                stream = rng.integers(0, universe, size=150)
            cache, ref = Cache(capacity, Policy.LFU), ReferenceLFU(capacity)
            for obj in stream.tolist():
                if obj in cache:
                    assert obj in ref.items
                    cache.touch(obj)
                    ref.touch(obj)
                else:
                    assert cache.insert(obj) == ref.insert(obj)
                assert cache.residents() == list(ref.items)
                assert len(cache.residents()) <= capacity
                assert sorted(resident for _, resident in cache._heap) == sorted(ref.items)
                assert all(count <= ref.items[resident][0] for count, resident in cache._heap)

    def test_lfu_heap_stays_bounded_under_hits(self):
        rng = np.random.default_rng(12)
        cache = Cache(10, Policy.LFU)
        for obj in range(10):
            cache.insert(obj)
        for obj in rng.integers(0, 10, size=10_000).tolist():
            cache.touch(obj)
            assert len(cache._heap) == len(cache.residents())

    def test_capacity_never_exceeded_under_fuzz(self):
        rng = np.random.default_rng(1)
        for policy in (Policy.LRU, Policy.LFU):
            cache = Cache(3, policy)
            for obj in rng.integers(0, 10, size=2000).tolist():
                if obj in cache:
                    cache.touch(obj)
                else:
                    cache.insert(obj)
                assert len(cache.residents()) <= cache.capacity
                assert len(cache.residents()) == len(set(cache.residents()))

    def test_zero_slot_cache_admits_nothing(self):
        for policy in (Policy.LRU, Policy.LFU):
            cache = Cache(0, policy)
            assert cache.insert(1) == []
            assert 1 not in cache and cache.residents() == []


class TestHandleRequest:
    def test_local_hit(self):
        inst = path_instance(3, 2, c_sum=3)
        x = np.zeros((3, 2), dtype=bool)
        x[1, 0] = True
        state = installed(inst, x, [1, 1, 1])
        deterministic_epoch(state)
        assert state.telemetry.hops_accumulated[1, 0] == 0
        assert state.telemetry.hit_count[1, 0] == 1

    def test_no_cache_goes_to_origin(self):
        # path 0-1-2, origin at 0 with penalty 3, requester at node 2
        inst = path_instance(3, 1, penalty=3)
        state = installed(inst, np.zeros((3, 1), dtype=bool), [0, 0, 0])
        deterministic_epoch(state)
        assert state.telemetry.hops_accumulated[2, 0] == 2 + 3
        assert state.telemetry.hit_count[2, 0] == 0

    def test_lce_lru_capacity_one_thrashes(self):
        inst = path_instance(2, 2, penalty=3)
        state = NetworkState(inst, [1, 1], Policy.LRU)
        a, b = 0, 1
        assert handle_request(state, 1, a) > 0   # miss, A cached on reply path
        assert handle_request(state, 1, a) == 0  # hit
        assert handle_request(state, 1, b) > 0   # miss, B evicts A
        assert handle_request(state, 1, a) > 0   # miss again: B evicted A

    def test_lce_inserts_along_reply_path(self):
        inst = path_instance(4, 1, origin_attach=0, penalty=0)
        state = NetworkState(inst, [1] * 4, Policy.LRU)
        handle_request(state, 3, 0)
        # fetched from the origin behind node 0: every router on the path caches it
        for node in range(4):
            assert 0 in state.caches[node]
        assert state.holders[0] == {0, 1, 2, 3}

    def test_nearest_copy_wins_over_origin(self):
        inst = path_instance(3, 1, origin_attach=0, penalty=3, c_sum=1)
        x = np.zeros((3, 1), dtype=bool)
        x[2, 0] = True
        state = installed(inst, x, [0, 0, 1])
        deterministic_epoch(state)
        assert state.telemetry.hops_accumulated[1, 0] == 1  # node 2 beats origin at 1+3

    def test_remote_hit_does_not_refresh_supplier(self):
        # path 0-1-2 with node 1 holding [0, 1]: serving node 0 from node 1's
        # cache is no access at node 1, so its LRU order and LFU counts stay
        inst = path_instance(3, 3, penalty=3)
        for policy in (Policy.LRU, Policy.LFU):
            state = NetworkState(inst, [1, 2, 1], policy)
            for obj in (0, 1):
                state.caches[1].insert(obj)
                state.holders[obj].add(1)
            assert handle_request(state, 0, 0) == 1
            assert state.caches[1].residents() == [0, 1]
            assert state.caches[1].insert(2) == [0]  # object 0 is still the victim

    def test_holders_match_cache_contents(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            inst = random_instance(rng, n_max=8, m_max=6)
            capacities = rng.integers(0, 4, size=inst.n).tolist()
            for policy in (Policy.LRU, Policy.LFU):
                state = NetworkState(inst, capacities, policy)
                for _ in range(200):
                    handle_request(state, int(rng.integers(inst.n)), int(rng.integers(inst.m)))
                    assert state.holders == [{i for i in range(inst.n) if k in state.caches[i]}
                                             for k in range(inst.m)]


class TestAgainstReferenceLCE:
    """``handle_request`` (memoised reply stops, no insert at the supplier)
    against the plain algorithm, request by request."""

    def test_replay_matches_reference(self):
        rng = np.random.default_rng(57)
        totals = dict(admitted=0, evicted=0, refused=0, from_routers=0)
        for trial in range(200):
            inst = random_instance(rng, n_max=8, m_max=6)
            penalty = 0 if trial % 2 else 3
            inst = Instance(replace(inst.topology, origin_penalty=penalty), inst.catalog, inst.demand, inst.c_sum)
            capacities = rng.integers(0, 4, size=inst.n).tolist()
            policy = Policy.LRU if trial % 3 else Policy.LFU
            state, ref = NetworkState(inst, capacities, policy), ReferenceLCE(inst, capacities, policy)
            for _ in range(60):
                i, k = int(rng.integers(inst.n)), int(rng.integers(inst.m))
                hit = k in state.caches[i]
                assert (handle_request(state, i, k), hit) == ref.request(i, k), trial
                assert [c.residents() for c in state.caches] == [list(c.items) for c in ref.caches], trial
                assert all(len(c.residents()) <= c.capacity for c in state.caches), trial
                assert state.holders == ref.holders, trial
            for key in totals:
                totals[key] += getattr(ref, key)
        assert all(v > 100 for v in totals.values()), totals  # every branch was exercised

    def test_probe_hooks_see_every_request_and_admission(self, monkeypatch):
        """A counter on the module global ``handle_request`` sees each request
        once, and one on the class attribute ``Cache.insert`` sees every
        admission and eviction, as the benchmark's per-layer probes assume."""
        seen = dict(requests=0, admitted=0, evicted=0)
        serve, insert = simnet.handle_request, simnet.Cache.insert

        def counted_request(*args):
            seen["requests"] += 1
            return serve(*args)

        def counted_insert(cache, obj):
            had = obj in cache
            evicted = insert(cache, obj)
            seen["admitted"] += not had and obj in cache
            seen["evicted"] += len(evicted)
            return evicted

        monkeypatch.setattr(simnet, "handle_request", counted_request)
        monkeypatch.setattr(simnet.Cache, "insert", counted_insert)
        for scheme, policy in ((Scheme.LCE_LRU, Policy.LRU), (Scheme.LCE_LFU, Policy.LFU)):
            for k in seen:
                seen[k] = 0
            cfg = SimConfig(scheme, nodes=16, objects=40, requests_per_epoch=3000, cache_fraction=0.1,
                            epochs=2, warmup_epochs=0)
            inst = build_instance(cfg)
            capacities = [cfg.slots_per_node] * inst.n
            state, ref = NetworkState(inst, capacities, policy), ReferenceLCE(inst, capacities, policy)
            run_epoch(cfg, state, np.random.default_rng(5))
            draw = np.random.default_rng(5)
            requesters = draw.integers(0, inst.n, size=cfg.requests_per_epoch)
            objects = draw.choice(inst.m, size=cfg.requests_per_epoch, p=inst.catalog.popularity)
            for i, k in zip(requesters.tolist(), objects.tolist()):
                ref.request(i, k)
            assert seen == dict(requests=3000, admitted=ref.admitted, evicted=ref.evicted)
            assert ref.evicted > 0

            # the memo: each entry is the reply path without a router supplier,
            # or the whole path to the origin's attachment router
            topo = inst.topology
            assert 0 < len(state.reply_stops) <= inst.n * (inst.n + 1)
            for (i, j), stops in state.reply_stops.items():
                assert type(stops) is tuple
                if j == ORIGIN:
                    assert stops == tuple(shortest_path(ref.next_hop, i, topo.origin_attach))
                else:
                    assert stops == tuple(shortest_path(ref.next_hop, i, j)[:-1])
            assert any(j == ORIGIN for _, j in state.reply_stops) and any(j != ORIGIN for _, j in state.reply_stops)


class TestNearestSupplier:
    def test_matches_kernel(self):
        """The per-request lookup picks the brute-force oracle's supplier at
        the vectorized kernel's distance."""
        rng = np.random.default_rng(8)
        router_ties = origin_ties = 0
        for trial in range(200):
            inst = random_instance(rng, n_max=8, m_max=6)
            topo = inst.topology
            if trial % 2:
                topo = replace(topo, origin_penalty=0)
            x = rng.random((inst.n, inst.m)) < rng.uniform(0.1, 0.7)
            budgets = x.sum(axis=1)
            inst = Instance(topo, inst.catalog, inst.demand, int(budgets.sum()))
            state = NetworkState(inst, budgets, Policy.LRU)
            for i, k in zip(*np.nonzero(x)):
                state.holders[k].add(int(i))
            dist, supplier = nearest_copy(x, inst), nearest_supplier(x, inst)
            for i in range(inst.n):
                for k in range(inst.m):
                    assert _nearest_supplier(state, i, k) == (supplier[i, k], dist[i, k])
                    near = sum(1 for j in range(inst.n) if x[j, k] and topo.hop_matrix[i, j] == dist[i, k])
                    router_ties += near > 1
                    origin_ties += near > 0 and topo.origin_distances[i] == dist[i, k]
        assert router_ties > 100 and origin_ties > 100  # both tie-breaks were exercised

    def test_matches_kernel_at_desk_scale(self):
        """64 routers, so keys hop * n + j span several multiples of n."""
        rng = np.random.default_rng(64)
        catalog = Catalog(zipf_popularity(40, 0.8))
        base = generate_power_law_topology(64, 2, 7)
        for penalty in (0, 3):
            topo = replace(base, origin_penalty=penalty)
            for density in (0.01, 0.05, 0.2):
                x = rng.random((64, 40)) < density
                budgets = x.sum(axis=1)
                inst = Instance(topo, catalog, build_demand(topo, catalog), int(budgets.sum()))
                state = NetworkState(inst, budgets, Policy.LRU)
                for i, k in zip(*np.nonzero(x)):
                    state.holders[k].add(int(i))
                dist, supplier = nearest_copy(x, inst), nearest_supplier(x, inst)
                for i in range(inst.n):
                    for k in range(inst.m):
                        assert _nearest_supplier(state, i, k) == (supplier[i, k], dist[i, k])


class TestNearestCopyReference:
    @staticmethod
    def placements():
        """(instance, x): 512x800 RANDOM_STATIC cells, a solved 64x200
        placement, and an empty and a one-object-everywhere placement at
        origin penalties 0 and 3."""
        for fraction in (0.05, 0.10):
            config = SimConfig(Scheme.RANDOM_STATIC, nodes=512, objects=800, cache_fraction=fraction, seed=1)
            inst = build_instance(config)
            state = simnet._initial_state(config, inst, np.random.default_rng(simnet.seed_streams(config)[2]))
            yield inst, state.placement.x
        inst = build_instance(SimConfig(Scheme.OPTIMIZED, nodes=64, objects=200, cache_fraction=0.1, seed=2))
        yield inst, solve(inst).placement.x
        for penalty in (0, 3):
            topo = replace(inst.topology, origin_penalty=penalty)
            held = Instance(topo, inst.catalog, inst.demand, inst.c_sum)
            x = np.random.default_rng(penalty).random((64, 200)) < 0.05
            x[:, 7] = True
            yield held, np.zeros((64, 200), dtype=bool)
            yield held, x

    def test_matches_per_object_reference(self):
        """Object by object, the minimum of the holders' hop rows and the
        origin row, or the origin row without copies."""
        for inst, x in self.placements():
            hop, origin = inst.topology.hop_matrix, inst.topology.origin_distances
            expected = np.empty(x.shape)
            for k in range(x.shape[1]):
                holders = np.flatnonzero(x[:, k])
                expected[:, k] = np.minimum(hop[holders].min(axis=0), origin) if holders.size else origin
            dist = nearest_copy(x, inst)
            assert dist.dtype == float and dist.flags.c_contiguous
            assert np.array_equal(dist, expected)


class TestNearestCopyChunk:
    @pytest.mark.parametrize("chunk", [1, 1 << 40], ids=["one_object", "whole_catalog"])
    def test_chunk_leaves_result(self, monkeypatch, chunk):
        """The chunk bounds only the swap search's pricing: one object per
        chunk or the whole catalog in one gives the default's distances."""
        cases = [(inst, x, nearest_copy(x, inst)) for inst, x in TestNearestCopyReference.placements()]
        monkeypatch.setattr(optimizer, "_CHUNK", chunk)
        for inst, x, dist in cases:
            assert np.array_equal(nearest_copy(x, inst), dist)


class TestApplyPlacement:
    def test_empty_placement_empties_caches(self):
        inst = path_instance(3, 2, c_sum=6)
        state = installed(inst, np.ones((3, 2), dtype=bool), [2] * 3)
        deterministic_epoch(state)
        apply_placement(state, Placement(np.zeros((3, 2), dtype=bool), np.array([6, 0, 0])))
        assert not state.placement.x.any()
        assert np.array_equal(state.placement.budgets, [6, 0, 0])
        assert np.array_equal(state.placement_dist, np.tile(inst.topology.origin_distances[:, None], 2))
        # telemetry preserved across reconfiguration
        assert np.array_equal(state.telemetry.request_count, np.ones((3, 2)))

    def test_idempotent(self):
        inst = path_instance(3, 2, c_sum=3)
        x = np.zeros((3, 2), dtype=bool)
        x[0, 0] = x[2, 1] = True
        placement = Placement(x, np.array([1, 1, 1]))
        state = installed(inst, placement.x, placement.budgets)
        before = state.placement_dist.copy()
        apply_placement(state, placement)
        x[1, 1] = True  # the record is a copy of what was installed
        assert np.array_equal(state.placement.x, [[True, False], [False, False], [False, True]])
        assert np.array_equal(state.placement_dist, before)
        assert np.array_equal(state.placement_dist, nearest_copy(state.placement.x, inst))

    def test_infeasible_rejected(self):
        inst = path_instance(3, 2, c_sum=1)
        state = NetworkState(inst)
        x = np.ones((3, 2), dtype=bool)
        with pytest.raises(InvalidParameterError):
            apply_placement(state, Placement(x, np.array([1, 0, 0])))
        assert state.placement is None

    def test_one_feasibility_check_per_install(self, monkeypatch):
        """Each placement that serves is checked once, when it is installed:
        the warm-up placement and one decision after every epoch but the last."""
        calls = []
        original = optimizer.check_feasibility

        def counted(placement, instance):
            calls.append(placement)
            return original(placement, instance)

        holders = [(mod, name) for key, mod in list(sys.modules.items()) if key.split(".")[0] == "cachenet"
                   for name, value in vars(mod).items() if value is original]
        assert holders
        for mod, name in holders:
            monkeypatch.setattr(mod, name, counted)
        config = SimConfig(Scheme.OPTIMIZED, nodes=6, objects=8, cache_fraction=0.25, requests_per_epoch=300,
                           epochs=5, warmup_epochs=1, seed=3)
        run_simulation(config)
        assert len(calls) == config.epochs

    def test_record_is_the_only_residency(self):
        inst = path_instance(3, 2, c_sum=3)
        state = installed(inst, np.zeros((3, 2), dtype=bool), [1] * 3)
        assert not any(hasattr(state, a) for a in ("caches", "holders", "reply_stops"))
        lce = NetworkState(inst, [1] * 3, Policy.LFU)
        assert lce.placement is None
        assert (len(lce.caches), len(lce.holders), lce.reply_stops.next_hop.shape) == (3, 2, (3, 3))


class TestRunEpoch:
    def test_deterministic_schedule_matches_objective(self):
        rng = np.random.default_rng(2)
        x = rng.random((4, 3)) < 0.4
        inst = path_instance(4, 3, alpha=0.9, penalty=2, c_sum=int(x.sum()))
        budgets = x.sum(axis=1)
        placement = Placement(x, budgets)
        state = installed(inst, x, budgets)
        metrics = deterministic_epoch(state)
        expected = average_hops(
            evaluate_objective(nearest_assignment(placement, inst), inst), inst)
        assert metrics.avg_hops == pytest.approx(expected, abs=1e-9)

    def test_full_replication_zero_hops(self):
        inst = path_instance(3, 2, c_sum=6)
        state = installed(inst, np.ones((3, 2), dtype=bool), np.full(3, 2))
        cfg = SimConfig(Scheme.OPTIMIZED, nodes=3, objects=2, requests_per_epoch=500,
                        epochs=2, warmup_epochs=0, cache_fraction=1.0)
        metrics = run_epoch(cfg, state, np.random.default_rng(1))
        assert metrics.avg_hops == 0.0
        assert metrics.hit_ratio == 1.0

    def test_telemetry_conservation(self):
        inst = path_instance(4, 3, c_sum=4)
        state = NetworkState(inst, [1] * 4, Policy.LRU)
        cfg = SimConfig(Scheme.LCE_LRU, nodes=4, objects=3, requests_per_epoch=777,
                        epochs=2, warmup_epochs=0, cache_fraction=0.34)
        run_epoch(cfg, state, np.random.default_rng(3))
        tele = state.telemetry
        assert tele.total_requests == 777
        assert np.all(tele.hit_count <= tele.request_count)

    @pytest.mark.parametrize("scheme", [Scheme.LCE_LRU, Scheme.LCE_LFU])
    def test_lce_telemetry_matches_per_request_replay(self, scheme):
        """Per-pair LCE telemetry and metrics equal a replay of the same draws
        through handle_request, a hit being residency before serving."""
        policy = Policy.LRU if scheme is Scheme.LCE_LRU else Policy.LFU
        cfg = SimConfig(scheme, requests_per_epoch=150)  # run_epoch reads only the request count
        rng = np.random.default_rng(41)
        zero_hop_misses = 0
        for trial in range(40):
            inst = random_instance(rng, n_max=8, m_max=6)
            if trial % 3 == 0:  # a miss at the origin attachment then costs 0 hops
                inst = Instance(replace(inst.topology, origin_penalty=0), inst.catalog, inst.demand, inst.c_sum)
            n, m = inst.n, inst.m
            capacities = rng.integers(0, 3, size=n).tolist()
            state, twin = NetworkState(inst, capacities, policy), NetworkState(inst, capacities, policy)
            counts, hits, hops = ([[0] * m for _ in range(n)] for _ in range(3))
            for epoch in range(2):  # telemetry accumulates across epochs
                metrics = run_epoch(cfg, state, np.random.default_rng(trial * 2 + epoch))
                draw = np.random.default_rng(trial * 2 + epoch)
                requesters = draw.integers(0, n, size=150)
                objects = draw.choice(m, size=150, p=inst.catalog.popularity)
                epoch_hops = epoch_hits = 0
                for i, k in zip(requesters.tolist(), objects.tolist()):
                    hit = k in twin.caches[i]
                    h = handle_request(twin, i, k)
                    counts[i][k] += 1
                    hits[i][k] += hit
                    hops[i][k] += h
                    epoch_hops += h
                    epoch_hits += hit
                    zero_hop_misses += h == 0 and not hit
                assert metrics == EpochMetrics(epoch_hops / 150, epoch_hits / 150, 150), (trial, epoch)
                tele = state.telemetry
                assert tele.request_count.tolist() == counts, (trial, epoch)
                assert tele.hit_count.tolist() == hits, (trial, epoch)
                assert tele.hops_accumulated.tolist() == hops, (trial, epoch)
        assert zero_hop_misses > 0

    def test_pinned_telemetry_matches_per_request_replay(self):
        """Pinned-path telemetry and metrics equal a per-request sum over the
        same draws, each request served from its nearest copy or the origin,
        across a re-install between the two epochs."""
        cfg = SimConfig(Scheme.RANDOM_STATIC, requests_per_epoch=150)  # run_epoch reads only the request count
        rng = np.random.default_rng(43)
        zero_hop_misses = local_hits = 0
        for trial in range(40):
            inst = random_instance(rng, n_max=8, m_max=6)
            topo = replace(inst.topology, origin_penalty=0) if trial % 3 == 0 else inst.topology
            inst = Instance(topo, inst.catalog, inst.demand, inst.n * inst.m)
            n, m = inst.n, inst.m
            hop, dorg = topo.hop_matrix.tolist(), topo.origin_distances.tolist()
            state = NetworkState(inst)
            counts, hits, hops = ([[0] * m for _ in range(n)] for _ in range(3))
            for epoch in range(2):  # a fresh placement each epoch; telemetry accumulates
                x = rng.random((n, m)) < rng.uniform(0.0, 0.7)
                budgets = x.sum(axis=1)
                budgets[0] += inst.c_sum - budgets.sum()
                apply_placement(state, Placement(x, budgets))
                metrics = run_epoch(cfg, state, np.random.default_rng(trial * 2 + epoch))
                draw = np.random.default_rng(trial * 2 + epoch)
                requesters = draw.integers(0, n, size=150)
                objects = draw.choice(m, size=150, p=inst.catalog.popularity)
                epoch_hops = epoch_hits = 0
                for i, k in zip(requesters.tolist(), objects.tolist()):
                    hit = bool(x[i, k])
                    h = min([dorg[i]] + [hop[i][j] for j in range(n) if x[j, k]])
                    counts[i][k] += 1
                    hits[i][k] += hit
                    hops[i][k] += h
                    epoch_hops += h
                    epoch_hits += hit
                    zero_hop_misses += h == 0 and not hit
                    local_hits += hit
                assert metrics == EpochMetrics(epoch_hops / 150, epoch_hits / 150, 150), (trial, epoch)
                tele = state.telemetry
                assert tele.request_count.tolist() == counts, (trial, epoch)
                assert tele.hit_count.tolist() == hits, (trial, epoch)
                assert tele.hops_accumulated.tolist() == hops, (trial, epoch)
        assert zero_hop_misses > 0 and local_hits > 0

    def test_fixed_seed_reproduces_telemetry(self):
        inst = path_instance(4, 3, c_sum=4)
        cfg = SimConfig(Scheme.LCE_LFU, nodes=4, objects=3, requests_per_epoch=500,
                        epochs=2, warmup_epochs=0, cache_fraction=0.34)
        logs = []
        for _ in range(2):
            state = NetworkState(inst, [1] * 4, Policy.LFU)
            run_epoch(cfg, state, np.random.default_rng(42))
            logs.append(state.telemetry)
        assert np.array_equal(logs[0].request_count, logs[1].request_count)
        assert np.array_equal(logs[0].hit_count, logs[1].hit_count)
        assert np.array_equal(logs[0].hops_accumulated, logs[1].hops_accumulated)

    def test_deterministic_epoch_matches_per_pair_reference(self):
        """The vectorised deterministic epoch equals a per-pair sum over nearest copies."""
        rng = np.random.default_rng(31)
        for trial in range(120):
            inst = random_instance(rng, n_max=8, m_max=6)
            topo = replace(inst.topology, origin_penalty=0) if trial % 2 else inst.topology
            x = rng.random((inst.n, inst.m)) < rng.uniform(0.0, 0.7)
            budgets = x.sum(axis=1)
            inst = Instance(topo, inst.catalog, inst.demand, int(budgets.sum()))
            state = installed(inst, x, budgets)
            metrics = deterministic_epoch(state)
            dist = nearest_copy(x, inst)
            q = inst.demand.rates
            total_w = hop_w = req_w = hit_w = 0.0
            for i in range(inst.n):
                for k in range(inst.m):
                    total_w += q[i, k]
                    hop_w += q[i, k] * dist[i, k]
                    req_w += q[i, k]
                    hit_w += q[i, k] if x[i, k] else 0.0
            assert metrics.avg_hops == pytest.approx(hop_w / total_w, rel=1e-12)
            assert metrics.hit_ratio == pytest.approx(hit_w / req_w, rel=1e-12)
            assert metrics.requests == inst.n * inst.m
            tele = state.telemetry
            assert np.array_equal(tele.request_count, np.ones((inst.n, inst.m)))
            assert np.array_equal(tele.hit_count, x)
            assert np.array_equal(tele.hops_accumulated, dist)

    @pytest.mark.parametrize("policy", [Policy.LRU, Policy.LFU])
    def test_deterministic_lce_rejected(self, policy):
        state = NetworkState(path_instance(3, 2), [1] * 3, policy)
        with pytest.raises(InvalidParameterError):
            deterministic_epoch(state)
        assert state.telemetry.total_requests == 0

    def test_negative_seed_rejected_by_config(self):
        with pytest.raises(InvalidParameterError):
            SimConfig(Scheme.NO_CACHE, seed=-1)

    def test_zero_requests_rejected_by_config(self):
        with pytest.raises(InvalidParameterError):
            SimConfig(Scheme.NO_CACHE, requests_per_epoch=0)

    @pytest.mark.parametrize("field,value", [("nodes", 200_000), ("objects", 10**8), ("requests_per_epoch", 10**12)])
    def test_oversized_cell_rejected_by_config(self, field, value):
        """Rejected from its parameters alone, naming the term that breaks the bound."""
        with pytest.raises(InvalidParameterError, match=field):
            SimConfig(Scheme.LCE_LFU, **{field: value})

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_largest_run_cells_fit(self, scheme):
        """The largest cells the tests, demos and benchmark run stay within the bound."""
        SimConfig(scheme, nodes=512, objects=800, requests_per_epoch=20_000, cache_fraction=0.1)
        SimConfig(scheme, nodes=128, objects=800, requests_per_epoch=30_000, cache_fraction=0.1)


class TestDrawObjects:
    """``_ObjectDraw`` against ``Generator.choice(m, size, p=popularity)``:
    the same objects, draw for draw, and the generator left in the same state."""

    SPECIAL = {
        "uniform4": np.full(4, 0.25),  # every cdf value on a bucket edge
        "uniform8": np.full(8, 0.125),
        "trailing_zeros": np.array([0.5, 0.25, 0.25, 0.0, 0.0]),  # objects nobody requests
        "two_then_zero": np.array([0.75, 0.25, 0.0]),
        "tenths": np.full(10, 0.1),  # its cumsum ends one ulp below 1
        "zipf5": zipf_popularity(5, 0.8),  # cdf values inside buckets
    }

    @staticmethod
    def assert_same_draws(popularity, size, seed):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = _ObjectDraw(popularity)(ours, size)
        expected = theirs.choice(len(popularity), size=size, p=popularity)
        assert drawn.dtype == expected.dtype
        assert np.array_equal(drawn, expected)
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("alpha", [0, 0.4, 0.8, 1.2, 3, 10])
    @pytest.mark.parametrize("m", [1, 2, 3, 80, 200, 800])
    def test_matches_choice(self, m, alpha):
        popularity = zipf_popularity(m, alpha)
        for size in (1, 7, 3000) + ((20_000,) if m == 800 else ()):
            for seed in range(4):
                self.assert_same_draws(popularity, size, seed)

    @pytest.mark.parametrize("name", SPECIAL)
    def test_matches_choice_on_hand_built(self, name):
        for size in (1, 7, 3000):
            for seed in range(8):
                self.assert_same_draws(self.SPECIAL[name], size, seed)

    @staticmethod
    def edge_uniforms(popularity, buckets):
        """The cdf, and uniforms exactly on its values and on ``buckets``
        bucket edges, one ulp below each, and the largest uniform, which
        Generator draws with probability ~2**-53."""
        cdf = np.cumsum(popularity)
        cdf /= cdf[-1]
        edges = np.arange(buckets) / buckets
        return cdf, np.concatenate([edges, np.nextafter(edges[1:], 0), cdf[cdf < 1], np.nextafter(cdf, 0),
                                    [np.nextafter(1.0, 0)]])

    @staticmethod
    def draw_on(popularity, u):
        """What ``_ObjectDraw(popularity)`` draws from the uniforms ``u``."""

        class Uniforms:
            @staticmethod
            def random(size):
                assert size == len(u)
                return u.copy()

        return _ObjectDraw(popularity)(Uniforms, len(u))

    @pytest.mark.parametrize("name", SPECIAL)
    def test_uniforms_on_bucket_edges(self, name):
        """Uniforms exactly on bucket edges and cdf values, and the largest
        one, which Generator draws with probability ~2**-53, draw the number
        of cdf values at or below them."""
        popularity = self.SPECIAL[name]
        cdf, u = self.edge_uniforms(popularity, 64)
        drawn = self.draw_on(popularity, u)
        assert drawn.tolist() == [int(np.count_nonzero(cdf <= v)) for v in u]

    def test_uniforms_on_desk_scale_edges(self):
        """The same uniforms on desk-scale Zipf tables and the draw's own
        buckets reach both lookups: buckets holding one cdf value, where one
        comparison decides (both ways), and buckets holding two or more,
        which are searched."""
        reached = {"below one": 0, "on one": 0, "two or more": 0}
        for m, alpha in [(800, 0.8), (800, 1.2), (200, 0.8)]:
            popularity = zipf_popularity(m, alpha)
            g = _ObjectDraw(popularity).g
            cdf, u = self.edge_uniforms(popularity, g)
            drawn = self.draw_on(popularity, u)
            assert drawn.tolist() == [int(np.count_nonzero(cdf <= v)) for v in u]
            bucket = np.floor(u * g)
            held = np.searchsorted(cdf, (bucket + 1) / g, side="right") - np.searchsorted(cdf, bucket / g, side="right")
            at_or_below = drawn > np.searchsorted(cdf, bucket / g, side="right")
            reached["below one"] += int(np.count_nonzero((held == 1) & ~at_or_below))
            reached["on one"] += int(np.count_nonzero((held == 1) & at_or_below))
            reached["two or more"] += int(np.count_nonzero(held >= 2))
        assert min(reached.values()) > 100, reached

    def test_one_table_per_cell(self, monkeypatch):
        """A cell builds its draw's table once, however many epochs it runs."""
        built = []

        class Counted(simnet._ObjectDraw):
            def __init__(self, popularity):
                built.append(len(popularity))
                super().__init__(popularity)

        monkeypatch.setattr(simnet, "_ObjectDraw", Counted)
        for scheme in Scheme:
            run_simulation(SimConfig(scheme, nodes=8, objects=12, requests_per_epoch=200, epochs=4,
                                     warmup_epochs=1, seed=2, cache_fraction=0.25))
        assert built == [12] * len(Scheme)


class TestRunSimulation:
    def test_no_cache_matches_telemetry_recomputation(self):
        cfg = SimConfig(Scheme.NO_CACHE, nodes=8, objects=10, requests_per_epoch=400,
                        epochs=3, warmup_epochs=0, seed=5, cache_fraction=0.2)
        report = run_simulation(cfg)
        counts = report.telemetry.request_count.sum(axis=1)
        # every request pays (hops to the origin attachment) + penalty
        inst = build_instance(cfg)
        dorg = inst.topology.origin_distances
        expected = float((counts * dorg).sum()) / counts.sum()
        assert report.avg_hops == pytest.approx(expected, abs=1e-12)
        assert report.hit_ratio == 0.0

    def test_no_cache_hops_exact_at_hop_total_bound(self):
        """SimConfig accepts a hop total up to 2**53 and rejects one epoch more;
        at that total every NO_CACHE request records its origin distance
        exactly, here reached by a far origin instead of many epochs."""
        cell = dict(nodes=8, objects=10, requests_per_epoch=100, warmup_epochs=0)
        most = 2**53 // ((8 - 1 + 3) * 100)  # (nodes - 1 + origin penalty) x requests x epochs <= 2**53
        with pytest.raises(InvalidParameterError, match="^hop total: "):
            SimConfig(Scheme.NO_CACHE, epochs=most + 1, **cell)
        SimConfig(Scheme.NO_CACHE, epochs=most, **cell)
        cfg = SimConfig(Scheme.NO_CACHE, epochs=2, **cell)
        inst = build_instance(cfg)
        penalty = 2**53 // 200 - 7  # (nodes - 1 + penalty) x 200 requests <= 2**53
        inst = Instance(replace(inst.topology, origin_penalty=penalty), inst.catalog, inst.demand, inst.c_sum)
        state = installed(inst, np.zeros((inst.n, inst.m), dtype=bool), np.zeros(inst.n, dtype=int))
        rng = np.random.default_rng(5)
        metrics = [run_epoch(cfg, state, rng) for _ in range(cfg.epochs)]
        tele = state.telemetry
        dorg = inst.topology.origin_distances
        assert dorg.min() == penalty
        assert np.array_equal(tele.hops_accumulated, tele.request_count * dorg[:, None])
        expected = int((tele.request_count.sum(axis=1) * dorg).sum()) / 200
        assert sum(m.avg_hops for m in metrics) / 2 == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_optimized_beats_no_cache(self, seed):
        kwargs = dict(nodes=10, objects=20, requests_per_epoch=800, epochs=4,
                      warmup_epochs=1, seed=seed, cache_fraction=0.2)
        optimized = run_simulation(SimConfig(Scheme.OPTIMIZED, **kwargs))
        no_cache = run_simulation(SimConfig(Scheme.NO_CACHE, **kwargs))
        assert optimized.avg_hops < no_cache.avg_hops

    def test_full_cache_fraction_converges_to_zero(self):
        cfg = SimConfig(Scheme.OPTIMIZED, nodes=6, objects=8, requests_per_epoch=500,
                        epochs=3, warmup_epochs=1, seed=7, cache_fraction=1.0)
        report = run_simulation(cfg)
        for em in report.epoch_metrics[1:]:
            assert em.avg_hops == 0.0
            assert em.hit_ratio == 1.0

    def test_identical_config_identical_report(self):
        cfg = dict(nodes=8, objects=12, requests_per_epoch=300, epochs=3,
                   warmup_epochs=1, seed=9, cache_fraction=0.25)
        a = run_simulation(SimConfig(Scheme.LCE_LRU, **cfg))
        b = run_simulation(SimConfig(Scheme.LCE_LRU, **cfg))
        assert a.avg_hops == b.avg_hops
        assert a.hit_ratio == b.hit_ratio
        assert [m.avg_hops for m in a.epoch_metrics] == [m.avg_hops for m in b.epoch_metrics]
        assert np.array_equal(a.telemetry.request_count, b.telemetry.request_count)

    def test_random_static_capacity_respected(self):
        cfg = SimConfig(Scheme.RANDOM_STATIC, nodes=8, objects=10, requests_per_epoch=200,
                        epochs=2, warmup_epochs=0, seed=3, cache_fraction=0.2)
        report = run_simulation(cfg)
        assert report.total_requests == 400

    def test_copy_counts_are_integers(self, monkeypatch):
        """Every copy count a cell makes is an int: each placement it installs
        (the warm-up, RANDOM_STATIC and NO_CACHE placements, and each OPTIMIZED
        decision) has integer budgets summing exactly to ``config.c_sum``, and
        each LCE cache's capacity is the int ``slots_per_node``."""
        installs, states = [], []
        install, initial = simnet.apply_placement, simnet._initial_state

        def recorded_install(state, placement):
            installs.append(placement)
            install(state, placement)

        def recorded_initial(*args):
            states.append(initial(*args))
            return states[-1]

        monkeypatch.setattr(simnet, "apply_placement", recorded_install)
        monkeypatch.setattr(simnet, "_initial_state", recorded_initial)
        for scheme in Scheme:
            installs.clear()
            states.clear()
            config = SimConfig(scheme, nodes=16, objects=40, cache_fraction=0.1, requests_per_epoch=300,
                               epochs=4, warmup_epochs=1, seed=3)
            run_simulation(config)
            (state,) = states
            assert type(state.instance.c_sum) is int and state.instance.c_sum == config.c_sum, scheme
            if scheme in (Scheme.LCE_LRU, Scheme.LCE_LFU):
                assert installs == [], scheme
                assert [(type(c.capacity), c.capacity) for c in state.caches] == [(int, 4)] * config.nodes, scheme
                continue
            assert len(installs) == (config.epochs if scheme is Scheme.OPTIMIZED else 1), scheme
            for placement in installs:
                assert placement.budgets.dtype.kind in "iu", scheme
                assert sum(placement.budgets.tolist()) == config.c_sum, scheme


class TestTopologyMemo:
    """Consecutive cells of one seed share a memoised topology; none sees another cell's state."""

    CELL = dict(nodes=10, objects=20, requests_per_epoch=400, epochs=3, warmup_epochs=1,
                cache_fraction=0.2, seed=4)

    @staticmethod
    def outputs(config):
        report = run_simulation(config)
        tele = report.telemetry
        return (report.avg_hops, report.hit_ratio, report.total_requests, tele.request_count.tolist(),
                tele.hit_count.tolist(), tele.hops_accumulated.tolist())

    @pytest.mark.parametrize("scheme, other", [(Scheme.OPTIMIZED, Scheme.LCE_LFU),
                                               (Scheme.LCE_LRU, Scheme.OPTIMIZED)])
    def test_cell_alone_equals_cell_after_others(self, scheme, other):
        cfg = SimConfig(scheme, **self.CELL)
        simnet._topology.cache_clear()
        alone = self.outputs(cfg)
        run_simulation(replace(cfg, seed=cfg.seed + 1))
        after_other_seed = self.outputs(cfg)
        run_simulation(replace(cfg, scheme=other))
        hits = simnet._topology.cache_info().hits
        after_same_seed = self.outputs(cfg)
        assert simnet._topology.cache_info().hits == hits + 1  # served from the memo
        assert alone == after_other_seed == after_same_seed

    def test_hop_matrix_read_only(self):
        topology = build_instance(SimConfig(Scheme.NO_CACHE, **self.CELL)).topology
        with pytest.raises(ValueError):
            topology.hop_matrix[0, 1] = 0


class TestDeskScaleLCE:
    """LCE telemetry at desk scale, pinned: the 16×100 CSV digests are the only
    other pin on the LCE schemes."""

    DIGEST = "af88601bce097cc09b33fb82ef425dd45790a14d6ea7e72ad6ca3003a3048f5b"

    def test_telemetry_digest(self):
        digest = hashlib.sha256()
        for fraction in (0.05, 0.10):
            for scheme in (Scheme.LCE_LRU, Scheme.LCE_LFU):
                report = run_simulation(SimConfig(scheme, nodes=64, objects=200, seed=3, cache_fraction=fraction,
                                                  epochs=3, requests_per_epoch=20_000))
                tele = report.telemetry
                for counts in (tele.request_count, tele.hit_count, tele.hops_accumulated):
                    digest.update(counts.astype(np.int64).tobytes())
                for e in report.epoch_metrics:
                    digest.update(repr((e.avg_hops, e.hit_ratio, e.requests)).encode())
        assert digest.hexdigest() == self.DIGEST
