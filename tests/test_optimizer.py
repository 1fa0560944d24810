import itertools
import math

import numpy as np
import pytest

from cachenet import optimizer
from cachenet.netmodel import (
    Catalog,
    DemandMatrix,
    InvalidParameterError,
    Topology,
    all_pairs_hops,
    build_demand,
    generate_power_law_topology,
    zipf_popularity,
)
from cachenet.optimizer import (
    _gains,
    ORIGIN,
    Instance,
    InstanceTooLargeError,
    Placement,
    average_hops,
    check_feasibility,
    evaluate_objective,
    exact_solve,
    greedy_solve,
    local_search,
    nearest_copy,
    placement_cost,
    placement_digest,
    solve,
)
from cachenet.simnet import NetworkState, apply_placement
from util import nearest_assignment, random_instance


def path_topology(n, origin_attach=0, penalty=3):
    edges = frozenset((i, i + 1) for i in range(n - 1))
    return Topology(edges, all_pairs_hops(n, edges), origin_attach, penalty)


def make_instance(topo, m, alpha, rates, c_sum, sizes=None):
    sizes = np.ones(m) if sizes is None else np.asarray(sizes, dtype=float)
    catalog = Catalog(sizes, zipf_popularity(m, alpha))
    return Instance(topo, catalog, DemandMatrix(np.asarray(rates, dtype=float)), c_sum)


def brute_force_objective(placement, instance):
    """Term-by-term evaluation with explicit candidate enumeration."""
    total = 0.0
    for i in range(instance.n):
        for k in range(instance.m):
            d = float(instance.topology.origin_distances[i])
            for j in range(instance.n):
                if placement.x[j, k]:
                    d = min(d, float(instance.topology.hop_matrix[i, j]))
            total += instance.demand.rates[i, k] * d * instance.catalog.sizes[k]
    return total


def enumerate_feasible_assignments(placement, instance):
    """All supplier matrices satisfying the one-supplier and residency rules."""
    choices = []
    for i in range(instance.n):
        for k in range(instance.m):
            opts = [ORIGIN] + [j for j in range(instance.n) if placement.x[j, k]]
            choices.append(opts)
    for combo in itertools.product(*choices):
        sup = np.array(combo, dtype=int).reshape(instance.n, instance.m)
        yield sup


class TestNearestCopyAssignment:
    def test_all_zero_goes_to_origin(self):
        topo = path_topology(3)
        inst = make_instance(topo, 2, 0.5, np.ones((3, 2)), 0.0)
        placement = Placement(np.zeros((3, 2), dtype=bool), np.zeros(3))
        assign = nearest_assignment(placement, inst)
        assert np.all(assign == ORIGIN)

    def test_self_copy_dominates(self):
        topo = path_topology(3)
        inst = make_instance(topo, 2, 0.5, np.ones((3, 2)), 3.0)
        x = np.zeros((3, 2), dtype=bool)
        x[1, 0] = True
        budgets = np.array([2.0, 1.0, 0.0])
        assign = nearest_assignment(Placement(x, budgets), inst)
        assert assign[1, 0] == 1

    def test_remote_copy_beats_origin_penalty(self):
        # path 0-1-2, origin at node 0 with penalty 3, copy only at node 2
        topo = path_topology(3, origin_attach=0, penalty=3)
        inst = make_instance(topo, 1, 0.0, np.ones((3, 1)), 1.0)
        x = np.zeros((3, 1), dtype=bool)
        x[2, 0] = True
        assign = nearest_assignment(Placement(x, np.array([0.0, 0.0, 1.0])), inst)
        assert assign[1, 0] == 2  # 1 hop beats 1 + 3

    def test_router_preferred_over_origin_on_tie(self):
        topo = path_topology(3, origin_attach=0, penalty=0)
        inst = make_instance(topo, 1, 0.0, np.ones((3, 1)), 1.0)
        x = np.zeros((3, 1), dtype=bool)
        x[0, 0] = True  # router 0 ties the origin exactly
        assign = nearest_assignment(Placement(x, np.array([1.0, 0.0, 0.0])), inst)
        assert np.all(assign[:, 0] == 0)

    def test_optimal_among_all_feasible_assignments(self):
        # enumeration stays < 10^5 candidates at this size
        rng = np.random.default_rng(42)
        for _ in range(20):
            inst = random_instance(rng, n_max=3, m_max=3, c_max=3)
            result = exact_solve(inst)
            best = evaluate_objective(nearest_assignment(result.placement, inst), inst)
            for sup in enumerate_feasible_assignments(result.placement, inst):
                assert best <= evaluate_objective(sup, inst) + 1e-9


class TestObjective:
    def test_everything_everywhere_is_zero(self):
        topo = path_topology(3)
        inst = make_instance(topo, 2, 0.0, np.ones((3, 2)), 6.0)
        x = np.ones((3, 2), dtype=bool)
        placement = Placement(x, np.full(3, 2.0))
        assert evaluate_objective(nearest_assignment(placement, inst), inst) == 0.0

    def test_two_node_single_copy(self):
        topo = path_topology(2, origin_attach=0, penalty=5)
        inst = make_instance(topo, 1, 0.0, np.ones((2, 1)), 1.0)
        x = np.array([[True], [False]])
        cost = evaluate_objective(
            nearest_assignment(Placement(x, np.array([1.0, 0.0])), inst), inst)
        assert cost == 1.0  # node 1 fetches over one hop, node 0 local

    def test_matches_brute_force_on_mixed_placements(self):
        rng = np.random.default_rng(3)
        topo = path_topology(3, origin_attach=1, penalty=2)
        inst = make_instance(topo, 2, 1.0, rng.uniform(0.1, 2.0, (3, 2)), 3.0)
        for _ in range(25):
            x = rng.random((3, 2)) < 0.4
            budgets = x.sum(axis=1).astype(float)
            budgets[0] += 3.0 - budgets.sum()
            placement = Placement(x.astype(bool), budgets)
            cost = evaluate_objective(nearest_assignment(placement, inst), inst)
            assert cost == pytest.approx(brute_force_objective(placement, inst), abs=1e-9)

    def test_linear_in_demand(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng)
        result = exact_solve(inst)
        scaled = Instance(inst.topology, inst.catalog,
                          DemandMatrix(inst.demand.rates * 3.5), inst.c_sum)
        scaled_result = exact_solve(scaled)
        assert scaled_result.cost == pytest.approx(3.5 * result.cost, rel=1e-9)
        assert np.array_equal(scaled_result.placement.x, result.placement.x)

    def test_average_hops_normalization(self):
        topo = path_topology(2, origin_attach=0, penalty=5)
        inst = make_instance(topo, 1, 0.0, np.ones((2, 1)), 0.0)
        cost = placement_cost(Placement(np.zeros((2, 1), dtype=bool), np.zeros(2)), inst)
        assert average_hops(cost, inst) == pytest.approx((5 + 6) / 2)


class TestInstanceChecks:
    @pytest.mark.parametrize("c_sum", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_rejects_c_sum(self, c_sum):
        with pytest.raises(ValueError):
            make_instance(path_topology(3), 2, 0.0, np.ones((3, 2)), c_sum)


class TestWeights:
    """``Instance.weights``: rates x sizes on the instance's power-of-two grid."""

    @staticmethod
    def step(inst):
        total = float((inst.demand.rates * inst.catalog.sizes).sum()) * float(inst.topology.origin_distances.max())
        return 2.0 ** (math.frexp(total)[1] - 52)

    @pytest.mark.parametrize("max_size", [1, 3], ids=["unit_sizes", "sizes_1_2_3"])
    def test_integer_demand_unchanged(self, max_size):
        inst = telemetry_instance(24, 80, 1, smoothing=1.0, max_size=max_size)
        assert inst.weights.tobytes() == (inst.demand.rates * inst.catalog.sizes).tobytes()

    def test_integer_total_just_under_2_52(self):
        """sum(w) * max distance = 2**52 - 1 keeps odd weights; one more unit
        of demand doubles the step and moves them."""
        topo = path_topology(3)  # origin distances 3, 4, 5
        big = (2 ** 52 - 1) // 5 - 11
        for extra, unchanged in ((0, True), (1, False)):
            inst = make_instance(topo, 2, 0.0, [[big + extra, 1], [1, 1], [1, 1]], 6.0, sizes=[1, 3])
            raw = inst.demand.rates * inst.catalog.sizes
            assert (float(raw.sum()) * 5 < 2 ** 52) is unchanged
            assert (inst.weights.tobytes() == raw.tobytes()) is unchanged

    @pytest.mark.parametrize("max_size", [1, 3], ids=["unit_sizes", "sizes_1_2_3"])
    @pytest.mark.parametrize("n,m,topo_seed", [(24, 80, 1), (64, 200, 5)], ids=["24x80", "64x200"])
    def test_fractional_demand_on_grid(self, n, m, topo_seed, max_size):
        inst = telemetry_instance(n, m, topo_seed, smoothing=0.3, max_size=max_size)
        units = inst.weights / self.step(inst)
        assert np.array_equal(units, np.round(units))
        assert float(units.sum()) * float(inst.topology.origin_distances.max()) < 2 ** 52
        raw = inst.demand.rates * inst.catalog.sizes
        assert np.abs(inst.weights - raw).max() <= self.step(inst) / 2
        assert not np.array_equal(inst.weights, raw)  # the demand is off the grid

    def test_smallest_true_demand_weight_kept(self):
        """True demand at 800 objects and alpha 1.2 keeps its least popular
        object, which a fixed 2**-10 grid rounds to zero."""
        topo = generate_power_law_topology(64, 2, seed=1)
        catalog = Catalog.uniform_sizes(800, 1.2)
        inst = Instance(topo, catalog, build_demand(topo, catalog), 64.0)
        smallest = float(inst.demand.rates.min())
        assert round(smallest * 2 ** 10) == 0
        assert inst.weights.min() > 0
        assert abs(float(inst.weights.min()) - smallest) <= self.step(inst) / 2

    def test_overflowing_total_rejected(self):
        """Demand whose hop-weighted total is not a finite float has no grid:
        its weights, and so every solve, raise instead of reading inf."""
        inst = make_instance(path_topology(3), 2, 0.0, np.full((3, 2), 1e307), 2.0)  # sums to 6e307, times 5 hops
        with pytest.raises(ValueError, match="finite float"):
            inst.weights
        with pytest.raises(ValueError, match="finite float"):
            solve(inst)

    def test_read_only(self):
        inst = telemetry_instance(24, 80, 1)
        with pytest.raises(ValueError):
            inst.weights[0, 0] = 1.0


class TestFeasibility:
    def test_empty_with_equal_split_ok(self):
        topo = path_topology(3)
        inst = make_instance(topo, 2, 0.0, np.ones((3, 2)), 6.0)
        placement = Placement(np.zeros((3, 2), dtype=bool), np.full(3, 2.0))
        assert check_feasibility(placement, inst) == []

    def test_capacity_violation_names_node(self):
        topo = path_topology(3)
        inst = make_instance(topo, 2, 0.0, np.ones((3, 2)), 6.0)
        x = np.zeros((3, 2), dtype=bool)
        x[1] = True  # 2 units at node 1, budget 1
        placement = Placement(x, np.array([5.0, 1.0, 0.0]))
        assert check_feasibility(placement, inst) == ["node 1: resident size 2.0 exceeds budget 1.0"]

    def test_pool_violation(self):
        topo = path_topology(3)
        inst = make_instance(topo, 2, 0.0, np.ones((3, 2)), 6.0)
        placement = Placement(np.zeros((3, 2), dtype=bool), np.array([2.0, 2.0, 1.0]))
        assert check_feasibility(placement, inst) == ["budgets sum to 5.0, pool is 6.0"]

    MALFORMED = {  # (x, budgets) for a 6-router, 10-object instance with pool 6
        "fractional_x": (np.full((6, 10), 0.1), np.ones(6)),
        "extra_router": (np.eye(7, 10, dtype=bool) & (np.arange(7) < 6)[:, None], np.append(np.ones(6), 0.0)),
        "missing_router": (np.eye(5, 10, dtype=bool), np.full(5, 1.2)),
        "nan_budgets": (np.zeros((6, 10), dtype=bool), np.full(6, np.nan)),
        "one_budget": (np.zeros((6, 10), dtype=bool), np.array([6.0])),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_placement_one_message(self, case):
        """A membership matrix that is not n x m boolean, or budgets that are
        not n finite numbers, get one message and no install."""
        inst = make_instance(path_topology(6), 10, 0.8, np.ones((6, 10)), 6.0)
        placement = Placement(*self.MALFORMED[case])
        problems = check_feasibility(placement, inst)
        assert len(problems) == 1
        assert problems[0].startswith("budgets must be" if "budget" in case else "membership must be")
        state = NetworkState(inst)
        with pytest.raises(InvalidParameterError):
            apply_placement(state, placement)
        assert state.placement is None


class TestExactSolve:
    def test_zero_budget_costs_origin_only(self):
        rng = np.random.default_rng(8)
        inst = random_instance(rng)
        inst = Instance(inst.topology, inst.catalog, inst.demand, 0.0)
        result = exact_solve(inst)
        assert not result.placement.x.any()
        expected = float((inst.demand.rates
                          * inst.topology.origin_distances[:, None]
                          * inst.catalog.sizes[None, :]).sum())
        assert result.cost == pytest.approx(expected)

    def test_full_budget_full_replication(self):
        topo = path_topology(3)
        inst = make_instance(topo, 2, 0.5, np.ones((3, 2)), 6.0)
        result = exact_solve(inst)
        assert result.cost == 0.0

    def test_three_node_path_hand_count(self):
        # alpha=1 over two objects: p = [2/3, 1/3]; budget 2 on a 3-path,
        # origin at node 0 with penalty 3.
        # Hand count: one copy of each object at the center node.
        # Object 0 there saves 4*(3+4+5) - 4*(1+0+1) = 40; a second copy of
        # object 0 saves at most 4, while object 1 at the center saves
        # 2*(3+4+5) - 2*(1+0+1) = 20, so the optimum is {(1,0), (1,1)} at
        # cost 4*(1+0+1) + 2*(1+0+1) = 12.
        topo = path_topology(3, origin_attach=0, penalty=3)
        rates = np.tile(np.array([2 / 3, 1 / 3]) * 6, (3, 1))
        inst = make_instance(topo, 2, 1.0, rates, 2.0)
        result = exact_solve(inst)
        expected = np.zeros((3, 2), dtype=bool)
        expected[1, :] = True
        assert np.array_equal(result.placement.x, expected)
        assert result.cost == pytest.approx(12.0)
        assert result.cost == pytest.approx(brute_force_objective(result.placement, inst))

    def test_guard_rejects_large(self):
        topo = path_topology(5)
        inst = make_instance(topo, 5, 0.5, np.ones((5, 5)), 2.0)
        with pytest.raises(InstanceTooLargeError):
            exact_solve(inst)

    @pytest.mark.parametrize("c_sum", [2.0, 4.0, 6.0])
    def test_size_pool_prune_matches_brute_force(self, c_sum):
        """With sizes 1-3, some combinations of up to c_sum copies overflow
        the pool and are skipped; the optimum is still the cheapest of the
        2**9 memberships that fit it."""
        rng = np.random.default_rng(int(c_sum))
        rates = rng.integers(1, 6, size=(3, 3)).astype(float)
        inst = make_instance(path_topology(3), 3, 0.8, rates, c_sum, sizes=[1, 2, 3])
        fits, overflows = [], 0
        for bits in itertools.product((False, True), repeat=9):
            x = np.array(bits).reshape(3, 3)
            used = float((x @ inst.catalog.sizes).sum())
            if used <= c_sum:
                fits.append(placement_cost(Placement(x, np.zeros(3)), inst))  # cost reads only x
            overflows += sum(bits) <= c_sum < used  # enumerated, then pruned
        assert overflows > 0
        result = exact_solve(inst)
        assert result.cost == min(fits)
        assert check_feasibility(result.placement, inst) == []
        assert placement_cost(result.placement, inst) == result.cost

    def test_budgets_sum_to_pool(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            inst = random_instance(rng)
            result = exact_solve(inst)
            assert check_feasibility(result.placement, inst) == []


def naive_greedy(instance):
    """Reference greedy: each step scores every (router, object) copy from
    the nearest-copy kernel and adds the best by gain per size unit, then
    gain, then lowest router, then lowest object."""
    sizes = instance.catalog.sizes
    qs = instance.weights
    x = np.zeros((instance.n, instance.m), dtype=bool)
    pool = instance.c_sum
    while True:
        dist = nearest_copy(x, instance)
        best = None
        for j in range(instance.n):
            for k in range(instance.m):
                if x[j, k] or sizes[k] > pool + 1e-9:
                    continue
                y = x.copy()
                y[j, k] = True
                gain = float(qs[:, k] @ (dist[:, k] - nearest_copy(y, instance)[:, k]))
                key = (gain / sizes[k], gain, -j, -k)
                if best is None or key > best:
                    best = key
        if best is None or best[1] <= 0:
            return x
        j, k = -best[2], -best[3]
        x[j, k] = True
        pool -= sizes[k]


def rescan_greedy(instance):
    """Reference greedy that re-selects over every object on each pick: the
    best gain per size unit among the objects that fit, then the higher
    gain, the lower router, the lower object. Returns (placement, cost)."""
    n, m = instance.n, instance.m
    hop = instance.topology.hop_matrix.astype(float)
    sizes = instance.catalog.sizes
    qs = instance.weights
    x = np.zeros((n, m), dtype=bool)
    curdist = nearest_copy(x, instance)
    pool = float(instance.c_sum)
    best_router, best_gain = np.zeros(m, dtype=int), np.zeros(m)
    saved = np.empty((1, n, n))
    rescore = range(m)
    while True:
        for k in rescore:
            gain = _gains(qs.T[k:k + 1, None], curdist[:, k][None, :, None], hop, saved)[0, 0]
            gain[x[:, k]] = -np.inf
            best_router[k] = np.argmax(gain)
            best_gain[k] = gain[best_router[k]]
        rate = np.where(sizes <= pool + 1e-9, best_gain / sizes, -np.inf)
        tied = np.flatnonzero(rate == rate.max())
        tied = tied[best_gain[tied] == best_gain[tied].max()]
        k = int(tied[np.argmin(best_router[tied])])
        if rate[k] == -np.inf or best_gain[k] <= 0:
            break
        j = int(best_router[k])
        x[j, k] = True
        pool -= float(sizes[k])
        np.minimum(curdist[:, k], hop[:, j], out=curdist[:, k])
        rescore = [k]
    budgets = (x @ sizes).astype(float)
    budgets[0] += instance.c_sum - budgets.sum()
    out = Placement(x, budgets)
    return out, placement_cost(out, instance)


def integer_rates(inst):
    """The instance with whole-number rates, so every gain is exact and ties are common."""
    return Instance(inst.topology, inst.catalog, DemandMatrix(np.floor(inst.demand.rates)), inst.c_sum)


class TestGainKernel:
    def test_matches_one_object_products(self):
        """Every object's gains equal the one-object product qs[:, k] @ saved
        bit for bit: for a batch with its own distances per object, for one
        distance row shared by every object, and for a one-column view."""
        rng = np.random.default_rng(30)
        for trial in range(100):
            n, m = int(rng.integers(2, 70)), int(rng.integers(1, 60))
            hop = rng.integers(0, 7, (n, n)).astype(float)
            qs = rng.random((n, m)) * 30 + 0.3
            dist = rng.integers(0, 9, (m, n)).astype(float)
            saved = np.empty((m, n, n))
            ref = np.array([qs[:, k] @ np.maximum(dist[k][:, None] - hop, 0.0) for k in range(m)])
            shared = np.array([qs[:, k] @ np.maximum(dist[0][:, None] - hop, 0.0) for k in range(m)])
            each_q, each_dist = qs.T[:, None, :], dist[:, :, None]
            assert np.array_equal(_gains(each_q, each_dist, hop, saved)[:, 0], ref), trial
            assert np.array_equal(_gains(each_q, each_dist[:1], hop, saved)[:, 0], shared), trial
            k = int(rng.integers(0, m))
            assert np.array_equal(_gains(each_q[k:k + 1], each_dist[k:k + 1], hop, saved)[0, 0], ref[k]), trial


def _gain_buffer(dist, hop, saved):
    buf = saved[:len(dist)]
    np.subtract(dist, hop, out=buf)
    return np.maximum(buf, 0.0, out=buf)


GAIN_ORDERS = {  # _gains with its products summed in other orders
    "contiguous": lambda qs, dist, hop, saved: _gains(np.ascontiguousarray(qs), dist, hop, saved),
    "einsum": lambda qs, dist, hop, saved: np.einsum("cxi,cij->cxj", qs, _gain_buffer(dist, hop, saved)),
    "reversed": lambda qs, dist, hop, saved: np.matmul(qs[:, :, ::-1], _gain_buffer(dist, hop, saved)[:, ::-1]),
}


class TestGreedy:
    def test_matches_naive_reference(self):
        rng = np.random.default_rng(21)
        for trial in range(300):
            inst = integer_rates(random_instance(rng, n_max=6, m_max=6, c_max=6, unit_sizes=trial % 2 == 0))
            assert np.array_equal(greedy_solve(inst).placement.x, naive_greedy(inst)), trial

    @pytest.mark.parametrize("max_size", [1, 3], ids=["unit_sizes", "sizes_1_2_3"])
    @pytest.mark.parametrize("smoothing", [0.3, 1.0])
    @pytest.mark.parametrize("n,m,topo_seed", [(24, 80, 1), (64, 200, 5)], ids=["24x80", "64x200"])
    def test_matches_rescan_at_desk_scale(self, n, m, topo_seed, smoothing, max_size):
        """The heap greedy makes the full re-selection's picks on
        telemetry-shaped instances. With sizes 1..3, several of them run
        the pool below a larger object's size while that object still has
        the best rate, and smaller objects are picked after it."""
        for fraction in (0.02, 0.05, 0.10):
            inst = telemetry_instance(n, m, topo_seed, fraction, smoothing, max_size)
            result = greedy_solve(inst)
            reference, cost = rescan_greedy(inst)
            assert placement_digest(result.placement) == placement_digest(reference), fraction
            assert result.cost == cost, fraction

    def test_equal_gains_go_to_lowest_router(self):
        # path 0-1-2, origin behind node 1 at penalty 3, demand only at the
        # ends: a copy at any of the three routers saves 6 hops
        topo = path_topology(3, origin_attach=1, penalty=3)
        inst = make_instance(topo, 1, 0.0, [[1.0], [0.0], [1.0]], 1.0)
        x = greedy_solve(inst).placement.x
        assert np.array_equal(x, [[True], [False], [False]])

    def test_equal_rate_goes_to_larger_gain(self):
        # same rates, sizes 1 and 2: equal gain per size unit, and the
        # size-2 object saves twice the hops
        topo = path_topology(2, origin_attach=0, penalty=3)
        inst = make_instance(topo, 2, 0.0, np.ones((2, 2)), 2.0, sizes=[1.0, 2.0])
        x = greedy_solve(inst).placement.x
        assert np.array_equal(x, [[False, True], [False, False]])

    def test_zero_budget_empty(self):
        rng = np.random.default_rng(10)
        inst = random_instance(rng)
        inst = Instance(inst.topology, inst.catalog, inst.demand, 0.0)
        assert not greedy_solve(inst).placement.x.any()

    def test_single_node_caches_popular_object(self):
        edges = frozenset([(0, 1)])
        topo = Topology(edges, all_pairs_hops(2, edges), 0, 3)
        rates = np.array([[0.9, 0.1], [0.0, 0.0]])
        rates[1, 0] = 1e-9  # keep demand matrix valid but concentrated at node 0
        catalog = Catalog(np.ones(2), np.array([0.9, 0.1]))
        inst = Instance(topo, catalog, DemandMatrix(rates), 1.0)
        result = greedy_solve(inst)
        assert result.placement.x[0, 0]

    def test_never_beats_exact_and_bounded(self):
        # regression bound frozen from a 500-instance pre-run on this seed:
        # worst observed greedy/exact ratio was 1.5021
        rng = np.random.default_rng(7)
        for _ in range(200):
            inst = random_instance(rng, n_max=3, m_max=4, c_max=4)
            ex = exact_solve(inst)
            gr = greedy_solve(inst)
            assert gr.cost >= ex.cost - 1e-9
            if ex.cost > 1e-12:
                assert gr.cost <= 1.55 * ex.cost

    def test_feasible_output(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            inst = random_instance(rng, unit_sizes=False)
            assert check_feasibility(greedy_solve(inst).placement, inst) == []


def naive_local_search(instance, x, max_iters):
    """Reference swap search: residents in (node, object) order, candidates
    (j, k2) row-major, each swap scored by recomputing the whole cost from
    the nearest-copy kernel; the first that lowers it is applied and the
    scan restarts. Returns (x, swaps)."""
    sizes = instance.catalog.sizes
    weight = instance.weights

    def cost(y):
        return float((weight * nearest_copy(y, instance)).sum())

    x = x.copy()
    slack = float(instance.c_sum - (x @ sizes).sum())
    swaps = 0
    while swaps < max_iters:
        base = cost(x)
        swap = None
        for i, k in zip(*np.nonzero(x)):
            for j, k2 in itertools.product(range(instance.n), range(instance.m)):
                if x[j, k2] or sizes[k2] > slack + sizes[k] + 1e-9:
                    continue
                y = x.copy()
                y[i, k], y[j, k2] = False, True
                if cost(y) < base:
                    swap = i, k, j, k2
                    break
            if swap:
                break
        if swap is None:
            break
        i, k, j, k2 = swap
        x[i, k], x[j, k2] = False, True
        slack = slack + float(sizes[k]) - float(sizes[k2])
        swaps += 1
    return x, swaps


def random_placement(rng, instance):
    """A feasible placement far from any local optimum: random copies added
    in random order while the pool allows."""
    x = np.zeros((instance.n, instance.m), dtype=bool)
    pool = instance.c_sum
    for flat in rng.permutation(instance.n * instance.m):
        j, k = divmod(int(flat), instance.m)
        if instance.catalog.sizes[k] <= pool + 1e-9 and rng.random() < 0.6:
            x[j, k] = True
            pool -= instance.catalog.sizes[k]
    return Placement(x, np.zeros(instance.n))


def telemetry_instance(n, m, topo_seed, fraction=0.10, smoothing=1.0, max_size=1, seed=2):
    """n routers x m objects with demand estimated as in the control loop:
    30,000 sampled request counts plus ``smoothing``. Object sizes are drawn
    from 1..max_size (all 1 by default)."""
    topo = generate_power_law_topology(n, 2, seed=topo_seed)
    catalog = Catalog.uniform_sizes(m, 0.8)
    if max_size > 1:
        sizes = np.random.default_rng(seed + 1).integers(1, max_size + 1, size=m).astype(float)
        catalog = Catalog(sizes, catalog.popularity)
    rng = np.random.default_rng(seed)
    counts = np.zeros((n, m))
    np.add.at(counts, (rng.integers(0, n, 30000), rng.choice(m, 30000, p=catalog.popularity)), 1.0)
    return Instance(topo, catalog, DemandMatrix(counts + smoothing), float(round(fraction * m) * n))


def desk_instance():
    """64 routers x 200 objects at cache fraction 0.10, smoothing 1."""
    return telemetry_instance(64, 200, topo_seed=5)


DESK_DIGEST = "ffb11f5f2e5976643d9d94a9f34c695fa4e27c1b3db6eaca19378631569b243b"
DESK_COST = 36840.0  # greedy alone: 36882.0
DESK_SWAPS = 26
# solve on non-integer demand (smoothing 0.3). Instance.weights rounds it onto
# the instance's power-of-two grid, where every cost and gain is exact, so
# these hold for any summation order of the gain kernel
# (test_fractional_demand_order_free).
# (n x m, max_size, fraction, request seed): (digest, cost, swaps)
FRACTIONAL_PINS = {
    ("24x80", 1, 0.02, 2): ("7ecfe556bb4f04f0c7f830c6c47ff676d8db7b1535e7cbbd7f50aa2378681adb", 60973.39999993553, 1),
    ("24x80", 1, 0.02, 3): ("b69a92a5f4e2186d52a8a6db0baac846247a48f7dd5a34fd0c1794fa60f5f605", 61091.299999934796, 0),
    ("24x80", 1, 0.1, 2): ("ebf6487e01727c34ec98359d4101fbc3a3c3ae2cdcab136279ba246ab5b86484", 27694.899999970512, 22),
    ("24x80", 1, 0.1, 3): ("c5dd0ef47604394b77ab282f3dee3859f86170e0ede2c1d2ff8a15696faf7b3f", 27724.899999970396, 28),
    ("24x80", 3, 0.02, 2): ("6bf5c6e6e7b0ab085d7db97798104654b8aec036af52b7e96fc1a1675956908a", 145355.90000011993, 0),
    ("24x80", 3, 0.02, 3): ("8e9ef2a50e55a9bdf8b52c64439d7d8ee2efd227a10f63a5f9b275c1b36c61f4", 184883.90000006754, 0),
    ("24x80", 3, 0.1, 2): ("b25da1d75cbb69cb79e7226013f2f9fba55e92b3e38d7dd5d7bacddf87281235", 71849.00000004855, 6),
    ("24x80", 3, 0.1, 3): ("bc632153e20440b2f4bf040257c41242e8ce83fdd13cf3ca126205672f6bd61a", 97102.90000002831, 0),
    ("64x200", 1, 0.02, 2): ("9bf0acdcec0accf0238612891b9a79b3cbbfd826a04b3235b2b4ce8b8ada65de", 49469.399999749265, 2),
    ("64x200", 1, 0.02, 3): ("a6d78f18b2e35cf831e328fc8d026924cc6eacdf70c4a34053c78fc703694046", 49535.599999749684, 1),
    ("64x200", 1, 0.1, 2): ("a5cb5a37b04794c2d5b3085b6dc313d0a0034812a41ef0f31e3c7bbc90d108ff", 26473.699999822362, 75),
    ("64x200", 1, 0.1, 3): ("d466aaed55b911eec0d33b8cfba25d65e2ae56586992c74c3ae2061a13e2c933", 26613.59999982326, 54),
    ("64x200", 3, 0.02, 2): ("c22968ee25705d163000fa2661c9eaece0e818e8f00da3fa18b494f9ab13f040", 137502.00000060967, 0),
    ("64x200", 3, 0.02, 3): ("23d22b2a4bb45449dd41dd910378a8dec45b67ab76ba19260d189ec25c0813c7", 159111.10000043781, 0),
    ("64x200", 3, 0.1, 2): ("afcd3b048f2602710f772dfd171d9e08b75508e48e579ee650d0b4efb56eba9c", 67986.7000002981, 24),
    ("64x200", 3, 0.1, 3): ("b7515cdb14889f4c4328de470649c6c15fde62d27d99db5fde730fa9cec62226", 79504.3000002437, 19),
}


class TestLocalSearch:
    def test_matches_naive_reference(self):
        rng = np.random.default_rng(23)
        no_fit = 0
        for trial in range(700):
            three = trial >= 360  # sizes 1..3: a freed copy can fit more than one other size
            over = trial >= 400  # a start above the pool, where a freed copy may fit no size
            inst = random_instance(rng, n_max=5, m_max=5, c_max=6, unit_sizes=trial % 2 == 0 and not three,
                                   max_size=3 if three else 2)
            if trial % 3 == 0:  # a free origin ties routers at the origin's attachment point
                topo = inst.topology
                inst = Instance(Topology(topo.edges, topo.hop_matrix, topo.origin_attach, 0),
                                inst.catalog, inst.demand, inst.c_sum)
            if trial < 300 or three and trial % 2:
                inst = integer_rates(inst)
            start = random_placement(rng, inst) if trial % 4 or over else greedy_solve(inst).placement
            if over:  # shrink the pool below the start's copies
                sizes = inst.catalog.sizes
                used = float((start.x @ sizes).sum())
                inst = Instance(inst.topology, inst.catalog, inst.demand, float(rng.integers(0, max(int(used), 1))))
                no_fit += bool(np.any(start.x & (inst.c_sum - used + sizes < sizes.min() - 1e-9)))
            for cap in (1, 2, 10 * inst.n * inst.m):
                fast = local_search(inst, start, cap)
                x, swaps = naive_local_search(inst, start.x, cap)
                assert np.array_equal(fast.placement.x, x), (trial, cap)
                assert fast.diagnostics["iterations"] == swaps, (trial, cap)
                assert fast.cost == placement_cost(Placement(x, fast.placement.budgets), inst), (trial, cap)
        assert no_fit >= 150, no_fit  # the no-fit case is reached: 207 of these 300 trials do

    def find_trap(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            inst = random_instance(rng, n_max=3, m_max=4, c_max=4)
            ex = exact_solve(inst)
            gr = greedy_solve(inst)
            if gr.cost > ex.cost + 1e-9:
                return inst, ex, gr
        raise AssertionError("no greedy-suboptimal instance found in corpus")

    def test_recovers_optimum_on_greedy_trap(self):
        inst, ex, gr = self.find_trap()
        refined = local_search(inst, gr.placement, 10 * inst.n * inst.m)
        assert refined.cost == pytest.approx(ex.cost, abs=1e-9)

    def test_optimal_input_unchanged(self):
        rng = np.random.default_rng(14)
        inst = random_instance(rng)
        ex = exact_solve(inst)
        refined = local_search(inst, ex.placement, 100)
        assert np.array_equal(refined.placement.x, ex.placement.x)

    def test_zero_iters_returns_input(self):
        rng = np.random.default_rng(15)
        inst = random_instance(rng)
        gr = greedy_solve(inst)
        refined = local_search(inst, gr.placement, 0)
        assert np.array_equal(refined.placement.x, gr.placement.x)
        assert refined.cost == pytest.approx(gr.cost)

    @pytest.mark.parametrize("chunk", [1, 1 << 40], ids=["one_object", "whole_catalog"])
    def test_pricing_chunk_leaves_result(self, monkeypatch, chunk):
        """The initial pricing's chunk only bounds memory: one object per
        chunk or the whole catalog in one gives the default's search."""
        n, m = 200, 60
        catalog = Catalog.uniform_sizes(m, 0.8)
        rng = np.random.default_rng(4)
        counts = np.zeros((n, m))
        np.add.at(counts, (rng.integers(0, n, 20000), rng.choice(m, 20000, p=catalog.popularity)), 1.0)
        inst = Instance(generate_power_law_topology(n, 2, seed=3), catalog, DemandMatrix(counts + 1.0),
                        float(round(0.10 * m) * n))
        start = greedy_solve(inst).placement
        default = local_search(inst, start, 10 * n * m)
        monkeypatch.setattr(optimizer, "_CHUNK", chunk)
        patched = local_search(inst, start, 10 * n * m)
        assert placement_digest(patched.placement) == placement_digest(default.placement)
        assert patched.cost == default.cost
        assert patched.diagnostics["iterations"] == default.diagnostics["iterations"] > 0

    def test_never_worse_than_input(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            inst = random_instance(rng)
            gr = greedy_solve(inst)
            refined = local_search(inst, gr.placement, 10 * inst.n * inst.m)
            assert refined.cost <= gr.cost + 1e-9
            assert check_feasibility(refined.placement, inst) == []


class TestSolvePipeline:
    def test_budget_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            inst = random_instance(rng)
            cost_low = solve(inst).cost
            bigger = Instance(inst.topology, inst.catalog, inst.demand, inst.c_sum + 1)
            assert solve(bigger).cost <= cost_low + 1e-9

    def test_zero_penalty_never_costs_more(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            inst = random_instance(rng)
            topo0 = Topology(inst.topology.edges, inst.topology.hop_matrix, inst.topology.origin_attach, 0)
            free_origin = Instance(topo0, inst.catalog, inst.demand, inst.c_sum)
            assert exact_solve(free_origin).cost <= exact_solve(inst).cost + 1e-9

    def test_exact_not_above_pipeline(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            inst = random_instance(rng)
            ex = exact_solve(inst)
            gr = greedy_solve(inst)
            full = solve(inst)
            assert ex.cost <= full.cost + 1e-9 <= gr.cost + 2e-9

    def test_desk_scale_pinned(self):
        # only 4x5 instances reach the exact solver; this pins the search at desk scale
        result = solve(desk_instance())
        assert placement_digest(result.placement) == DESK_DIGEST
        assert result.cost == DESK_COST
        assert result.diagnostics["swaps"] == DESK_SWAPS

    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("fraction", [0.02, 0.1])
    @pytest.mark.parametrize("max_size", [1, 3], ids=["unit_sizes", "sizes_1_2_3"])
    @pytest.mark.parametrize("n,m,topo_seed", [(24, 80, 1), (64, 200, 5)], ids=["24x80", "64x200"])
    def test_fractional_demand_pinned(self, n, m, topo_seed, max_size, fraction, seed):
        result = solve(telemetry_instance(n, m, topo_seed, fraction, 0.3, max_size, seed))
        digest, cost, swaps = FRACTIONAL_PINS[f"{n}x{m}", max_size, fraction, seed]
        assert placement_digest(result.placement) == digest
        assert result.cost == cost
        assert result.diagnostics["swaps"] == swaps

    @pytest.mark.parametrize("order", GAIN_ORDERS)
    def test_fractional_demand_order_free(self, monkeypatch, order):
        """Every cost and gain is exact on the instance's grid, so summing the
        gain kernel's products in another order leaves each pinned solve."""
        monkeypatch.setattr(optimizer, "_gains", GAIN_ORDERS[order])
        topo_seeds = {"24x80": 1, "64x200": 5}
        for key, pinned in FRACTIONAL_PINS.items():
            size, max_size, fraction, seed = key
            n, m = map(int, size.split("x"))
            result = solve(telemetry_instance(n, m, topo_seeds[size], fraction, 0.3, max_size, seed))
            assert (placement_digest(result.placement), result.cost, result.diagnostics["swaps"]) == pinned, key
