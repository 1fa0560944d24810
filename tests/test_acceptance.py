"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. The two sweep criteria run the full experiment harness at
desk scale (several minutes total)."""

import csv
import itertools
import math
import time

import numpy as np
import pytest

from cachenet.analytics import controller_epoch
from cachenet.experiment import alpha_sweep_spec, cache_size_sweep_spec, run_experiment
from cachenet.netmodel import Catalog, DemandMatrix, zipf_popularity
from cachenet.optimizer import (
    ORIGIN,
    Instance,
    Placement,
    average_hops,
    check_feasibility,
    solve,
)
from cachenet.simnet import (
    Cache,
    NetworkState,
    Policy,
    Scheme,
    SimConfig,
    apply_placement,
    build_instance,
    deterministic_epoch,
    run_epoch,
    seed_streams,
)
from util import evaluate_objective, exact_solve, nearest_assignment, placement_cost, random_instance


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def read_summary(path):
    """{(sweep_value, scheme): (mean, std)}"""
    out = {}
    with open(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            out[(float(row[0]), row[1])] = (float(row[2]), float(row[3]))
    return out


SWEEP_LOAD = dict(requests_per_epoch=3000, epochs=5, warmup_epochs=1)


@pytest.fixture(scope="module")
def cache_size_summary(tmp_path_factory):
    spec = cache_size_sweep_spec(**SWEEP_LOAD, output=str(tmp_path_factory.mktemp("cache_size")))
    t0 = time.time()
    _, summary = run_experiment(spec)
    return read_summary(summary), time.time() - t0, spec


@pytest.fixture(scope="module")
def alpha_summary(tmp_path_factory):
    spec = alpha_sweep_spec(**SWEEP_LOAD, output=str(tmp_path_factory.mktemp("alpha")))
    _, summary = run_experiment(spec)
    return read_summary(summary), spec


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    matches = 0
    worst = 1.0
    for _ in range(200):
        inst = random_instance(rng, n_max=4, m_max=5, c_max=4)
        exact = exact_solve(inst)
        pipeline = solve(inst)
        if abs(pipeline.cost - exact.cost) <= 1e-9 + 1e-9 * exact.cost:
            matches += 1
        ratio = pipeline.cost / exact.cost if exact.cost > 1e-12 else 1.0
        worst = max(worst, ratio)
        assert pipeline.cost >= exact.cost - 1e-9
    elapsed = time.time() - t0
    report(1, matches >= 190 and worst <= 1.05 and elapsed < 30,
           f"pipeline matched exact on {matches}/200, worst ratio {worst:.4f}, {elapsed:.1f}s")


def test_criterion_2_assignment_optimality():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(60):
        inst = random_instance(rng, n_max=3, m_max=3, c_max=3)
        placement = solve(inst).placement
        option_counts = [1 + int(placement.x[:, k].sum())
                         for _ in range(inst.n) for k in range(inst.m)]
        if math.prod(option_counts) > 100_000:
            continue
        best = evaluate_objective(nearest_assignment(placement, inst), inst)
        choices = [[ORIGIN] + [j for j in range(inst.n) if placement.x[j, k]]
                   for i in range(inst.n) for k in range(inst.m)]
        for combo in itertools.product(*choices):
            sup = np.array(combo, dtype=int).reshape(inst.n, inst.m)
            assert best <= evaluate_objective(sup, inst) + 1e-9
        checked += 1
    report(2, checked >= 30,
           f"nearest-copy beat every enumerated assignment on {checked} instances")


def test_criterion_3_simulator_objective_identity():
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(20):
        inst = random_instance(rng, n_max=4, m_max=5, c_max=4)
        x = rng.random((inst.n, inst.m)) < 0.35
        inst = Instance(inst.topology, inst.catalog, inst.demand, int(x.sum()))
        budgets = x.sum(axis=1)
        placement = Placement(x, budgets)
        state = NetworkState(inst)
        apply_placement(state, placement)
        measured = deterministic_epoch(state).avg_hops
        expected = average_hops(
            evaluate_objective(nearest_assignment(placement, inst), inst), inst)
        worst = max(worst, abs(measured - expected))
    report(3, worst <= 1e-9, f"deterministic-schedule identity, worst gap {worst:.2e}")


def test_criterion_4_cache_size_trend(cache_size_summary):
    summary, elapsed, spec = cache_size_summary
    fractions = spec.values
    schemes = [s.value for s in spec.schemes]
    opt = [summary[(f, "OPTIMIZED")] for f in fractions]
    # (a) non-increasing within one pooled standard deviation per step
    mono = all(m2 <= m1 + math.sqrt((s1 ** 2 + s2 ** 2) / 2)
               for (m1, s1), (m2, s2) in zip(opt, opt[1:]))
    # (b) best scheme at every point
    best = all(summary[(f, "OPTIMIZED")][0] <= summary[(f, s)][0]
               for f in fractions
               for s in ("LCE_LRU", "LCE_LFU", "RANDOM_STATIC"))
    # (c) the scheme gap widens with cache size
    def gap(f):
        means = [summary[(f, s)][0] for s in schemes]
        return max(means) - min(means)
    widened = gap(fractions[-1]) > gap(fractions[0])
    report(4, mono and best and widened and elapsed < 1800,
           f"monotone={mono}, optimized-best={best}, "
           f"gap {gap(fractions[0]):.3f}->{gap(fractions[-1]):.3f}, {elapsed:.0f}s")


def test_criterion_5_popularity_trend(alpha_summary):
    summary, spec = alpha_summary
    alphas = spec.values
    schemes = [s.value for s in spec.schemes]
    # (a) every popularity-aware scheme improves as skew grows
    mono = all(summary[(a2, s)][0] <= summary[(a1, s)][0]
               for s in schemes for a1, a2 in zip(alphas, alphas[1:]))
    # (b) optimized lowest at every alpha
    best = all(summary[(a, "OPTIMIZED")][0] <= summary[(a, s)][0]
               for a in alphas for s in schemes)
    # (c) the scheme gap narrows with skew
    def gap(a):
        means = [summary[(a, s)][0] for s in schemes]
        return max(means) - min(means)
    narrowed = gap(alphas[-1]) < gap(alphas[0])
    report(5, mono and best and narrowed,
           f"monotone={mono}, optimized-best={best}, "
           f"gap {gap(alphas[0]):.3f}->{gap(alphas[-1]):.3f}")


def test_criterion_6_constraint_suite():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        inst = random_instance(rng)
        assert check_feasibility(solve(inst).placement, inst) == []
    # cache transition fuzz: capacity invariant after every request
    fuzz = np.random.default_rng(100)
    for policy in (Policy.LRU, Policy.LFU):
        cache = Cache(6, policy)
        for obj in fuzz.integers(0, 50, size=50_000).tolist():
            if obj in cache:
                cache.touch(obj)
            else:
                cache.insert(obj)
            assert len(cache.residents()) <= cache.capacity
    report(6, True, "10^4 solver outputs feasible; 10^5-request eviction fuzz "
                    "kept every cache within capacity")


def test_criterion_7_closed_loop_convergence():
    cfg = SimConfig(Scheme.OPTIMIZED, nodes=4, objects=5, cache_fraction=0.2,
                    requests_per_epoch=100_000, epochs=4, warmup_epochs=1, seed=11)
    inst = build_instance(cfg)
    optimum = exact_solve(inst).cost
    state = NetworkState(inst)
    apply_placement(state, Placement(np.zeros((inst.n, inst.m), dtype=bool), np.full(inst.n, 1)))
    req_rng = np.random.default_rng(seed_streams(cfg)[1])
    decision_costs = []
    for epoch in range(cfg.epochs):
        run_epoch(cfg, state, req_rng)
        if epoch < cfg.epochs - 1:
            decision = controller_epoch(state.telemetry, inst)
            apply_placement(state, decision.placement)
            decision_costs.append(placement_cost(decision.placement, inst))
    converged = all(abs(c - optimum) <= 1e-9 for c in decision_costs)
    report(7, converged,
           f"controller placements cost {decision_costs} vs optimum {optimum:.6f} "
           "(optimal from the first decision onward)")


def test_criterion_8_end_to_end_determinism(tmp_path):
    spec = cache_size_sweep_spec(nodes=16, objects=100, seeds=[0, 1],
                     requests_per_epoch=500, epochs=3, warmup_epochs=1)
    spec.output = str(tmp_path / "run1")
    p1, s1 = run_experiment(spec)
    spec.output = str(tmp_path / "run2")
    p2, s2 = run_experiment(spec)
    same = (open(p1, "rb").read() == open(p2, "rb").read()
            and open(s1, "rb").read() == open(s2, "rb").read())
    report(8, same, "two end-to-end runs of the cache-size sweep spec produced "
                    "byte-identical per-run and summary CSVs")
