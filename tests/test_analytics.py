import numpy as np
import pytest

from cachenet import analytics
from cachenet.analytics import (
    ControllerDecision,
    controller_epoch,
    estimate_demand,
)
from cachenet.netmodel import Catalog, DemandMatrix, InvalidParameterError, zipf_popularity
from cachenet.optimizer import (
    Instance,
    Placement,
    SolveResult,
    check_feasibility,
    solve,
)
from cachenet.simnet import (
    NetworkState,
    Scheme,
    SimConfig,
    TelemetryLog,
    apply_placement,
    build_instance,
    run_simulation,
)
from util import exact_solve, placement_cost, random_instance


def log_with_counts(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return TelemetryLog(counts, np.zeros_like(counts), np.zeros_like(counts))


class TestEstimateDemand:
    def test_counts_pass_through(self):
        counts = np.zeros((2, 3), dtype=np.int64)
        counts[0, 1] = 10
        est = estimate_demand(log_with_counts(counts))
        assert np.array_equal(est, counts + 1)
        assert est.dtype == float

    def test_uniform_counts_stay_uniform(self):
        est = estimate_demand(log_with_counts(np.full((3, 4), 7)))
        assert np.all(est == 8)

    def test_smoothing_floor(self):
        """An object no router has requested keeps a demand of one."""
        est = estimate_demand(log_with_counts(np.zeros((2, 2))))
        assert np.all(est == 1)

    def test_total_mass(self):
        counts = np.arange(6).reshape(2, 3)
        est = estimate_demand(log_with_counts(counts))
        assert est.sum() == counts.sum() + 6

    def test_empty_log_decides_on_uniform_demand(self):
        """An empty log is never zero demand: the controller solves one request
        per (router, object) pair."""
        rng = np.random.default_rng(36)
        inst = random_instance(rng, c_max=3)
        decision = controller_epoch(log_with_counts(np.zeros((inst.n, inst.m))), inst)
        direct = solve(Instance(inst.topology, inst.catalog, DemandMatrix(np.ones((inst.n, inst.m))), inst.c_sum))
        assert decision.estimated_cost == direct.cost
        assert np.array_equal(decision.placement.x, direct.placement.x)
        assert decision.solver_diagnostics["sample_count"] == 0

    def test_statistical_consistency_against_zipf(self):
        # tolerance validated by a pre-run over several seeds: worst L1
        # distance at 10^5 samples was well under 0.02
        rng = np.random.default_rng(123)
        m = 200
        p = zipf_popularity(m, 0.8)
        samples = rng.choice(m, size=100_000, p=p)
        counts = np.bincount(samples, minlength=m).reshape(1, m)
        est = estimate_demand(log_with_counts(counts))
        marginal = est.sum(axis=0)
        marginal = marginal / marginal.sum()
        assert np.abs(marginal - p).sum() < 0.05

    def test_scale_consistency(self):
        counts = np.array([[3, 1], [0, 5]])
        a = estimate_demand(log_with_counts(counts)) - 1
        b = estimate_demand(log_with_counts(2 * counts)) - 1
        assert np.array_equal(2 * a, b)


class TestControllerEpoch:
    def sampled_log(self, instance, total, seed):
        rng = np.random.default_rng(seed)
        q = instance.demand.rates
        p = (q / q.sum()).ravel()
        draws = rng.choice(q.size, size=total, p=p)
        counts = np.bincount(draws, minlength=q.size).reshape(q.shape)
        return log_with_counts(counts)

    def test_converges_to_true_optimum_at_high_sample_count(self):
        rng = np.random.default_rng(31)
        found = 0
        for _ in range(12):
            inst = random_instance(rng, n_max=3, m_max=4, c_max=3)
            if inst.c_sum == 0:
                continue
            log = self.sampled_log(inst, 100_000, seed=1)
            decision = controller_epoch(log, inst)
            exact = exact_solve(inst)
            got = placement_cost(decision.placement, inst)
            assert got == pytest.approx(exact.cost, rel=1e-9)
            found += 1
        assert found >= 3

    def test_zero_budget_empty_placement(self):
        rng = np.random.default_rng(32)
        inst = random_instance(rng)
        inst = Instance(inst.topology, inst.catalog, inst.demand, 0)
        log = self.sampled_log(inst, 1000, seed=2)
        decision = controller_epoch(log, inst)
        assert not decision.placement.x.any()
        assert decision.solver_diagnostics["sample_count"] == 1000
        origin_cost = float((log.request_count + 1.0)
                            .__mul__(inst.topology.origin_distances[:, None]).sum())
        assert decision.estimated_cost == pytest.approx(origin_cost)

    def test_identical_telemetry_identical_decision(self):
        rng = np.random.default_rng(33)
        inst = random_instance(rng, c_max=3)
        log = self.sampled_log(inst, 5000, seed=3)
        a = controller_epoch(log, inst)
        b = controller_epoch(log, inst)
        assert np.array_equal(a.placement.x, b.placement.x)
        assert a.estimated_cost == b.estimated_cost

    def test_decision_always_feasible_and_improving(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            inst = random_instance(rng, c_max=4)
            log = self.sampled_log(inst, 2000, seed=4)
            decision = controller_epoch(log, inst)
            assert check_feasibility(decision.placement, inst) == []
            est_inst = Instance(inst.topology, inst.catalog,
                                DemandMatrix(estimate_demand(log)), inst.c_sum)
            empty = Placement(np.zeros((inst.n, inst.m), dtype=bool), np.r_[inst.c_sum, np.zeros(inst.n - 1, dtype=int)])
            empty_cost = placement_cost(empty, est_inst)
            assert decision.estimated_cost <= empty_cost + 1e-9

    def test_true_demand_bypass_matches_solver(self):
        rng = np.random.default_rng(35)
        inst = random_instance(rng, c_max=3)
        counts = np.round(inst.demand.rates * 1000).astype(np.int64)
        decision = controller_epoch(log_with_counts(counts), inst)
        scaled = Instance(inst.topology, inst.catalog, DemandMatrix(counts + 1.0), inst.c_sum)
        direct = solve(scaled)
        assert decision.estimated_cost == pytest.approx(direct.cost)
        assert np.array_equal(decision.placement.x, direct.placement.x)

    def test_infeasible_solution_raises(self, monkeypatch):
        """An infeasible decision never serves: the install rejects it, in
        words, and keeps the placement it had. The check is explicit, so it
        still runs under python -O."""
        def overfull(instance):
            return SolveResult(Placement(np.ones((instance.n, instance.m), dtype=bool), np.zeros(instance.n, dtype=int)), 0.0)

        monkeypatch.setattr(analytics, "solve", overfull)
        config = SimConfig(Scheme.OPTIMIZED, nodes=4, objects=5, cache_fraction=0.2, requests_per_epoch=200,
                           epochs=3, warmup_epochs=1)
        with pytest.raises(InvalidParameterError, match=r"^infeasible placement: node 0: 5 copies exceed"):
            run_simulation(config)

        rng = np.random.default_rng(37)
        inst = random_instance(rng, c_max=3)
        state = NetworkState(inst)
        empty = Placement(np.zeros((inst.n, inst.m), dtype=bool), np.r_[inst.c_sum, np.zeros(inst.n - 1, dtype=int)])
        apply_placement(state, empty)
        installed, dist = state.placement, state.placement_dist
        log = log_with_counts(np.ones((inst.n, inst.m), dtype=np.int64))
        decision = controller_epoch(log, inst)
        problems = [f"node {i}: {inst.m} copies exceed budget 0" for i in range(inst.n)]
        if inst.c_sum:
            problems.append(f"budgets sum to 0, pool is {inst.c_sum}")
        with pytest.raises(InvalidParameterError) as raised:
            apply_placement(state, decision.placement)
        assert str(raised.value) == "infeasible placement: " + "; ".join(problems)
        assert state.placement is installed and state.placement_dist is dist


def test_cell_runs_on_the_fixed_model(monkeypatch):
    """A cell's topology attaches 2 edges per router after the first two and
    puts the origin 3 hops out, and each decision solves the counts plus one."""
    counts, solved = [], []

    def recorded(telemetry_log, instance):
        counts.append(telemetry_log.request_count.copy())
        return controller_epoch(telemetry_log, instance)

    def solve_recorded(instance):
        solved.append(instance.demand.rates)
        return solve(instance)

    monkeypatch.setattr(analytics, "controller_epoch", recorded)
    monkeypatch.setattr(analytics, "solve", solve_recorded)
    cfg = SimConfig(Scheme.OPTIMIZED, nodes=9, objects=6, cache_fraction=0.5, requests_per_epoch=300,
                    epochs=3, warmup_epochs=1)
    topology = build_instance(cfg).topology
    assert len(topology.edges) == 1 + 2 * (cfg.nodes - 2)
    assert topology.origin_penalty == 3
    run_simulation(cfg)
    assert len(solved) == len(counts) == 2
    assert all(np.array_equal(q, c + 1) for q, c in zip(solved, counts))
