"""Desk-scale optimum certificate: on demand whose rows are all equal, the
exact optimum is the k-median optimum with an origin, one curve per
topology (``util.kmedian_curve``), split over the objects by
``util.kmedian_optimum``. It pins how far ``solve`` sits above the optimum
at 64 routers x 200 objects, where the exhaustive solver cannot reach."""

import numpy as np
import pytest

pytest.importorskip("scipy")

from cachenet.netmodel import Catalog, DemandMatrix, build_demand, generate_power_law_topology, zipf_popularity
from cachenet.optimizer import Instance, check_feasibility, local_search, solve
from cachenet.simnet import Scheme, SimConfig, build_instance
from util import (
    allocate_by_dp,
    allocate_by_gain,
    exact_solve,
    kmedian_curve,
    kmedian_optimum,
    placement_cost,
)

FRACTIONS = (0.01, 0.05, 0.10)
# solve's cost above the optimum, in percent rounded to 3 places, on
# 64 x 200 true demand over generate_power_law_topology(64, 2, seed), at each
# of FRACTIONS
GAPS = {0: (0.268, 1.162, 1.496), 1: (0.189, 0.594, 0.237)}


@pytest.fixture(scope="module", params=sorted(GAPS), ids=lambda seed: f"topology{seed}")
def desk(request):
    """(topology seed, the instance at each of FRACTIONS, the topology's curve)."""
    topo = generate_power_law_topology(64, 2, seed=request.param)
    catalog = Catalog(zipf_popularity(200, 0.8))
    demand = build_demand(topo, catalog)
    instances = [Instance(topo, catalog, demand, 64 * round(f * 200)) for f in FRACTIONS]
    return request.param, instances, kmedian_curve(topo)


def test_curve_shape(desk):
    """g falls from every router fetching from the origin to 0 with a copy
    at every router, and is convex, so the pool goes by marginal gain; the
    DP over objects agrees."""
    _, instances, (g, opened) = desk
    topo = instances[0].topology
    assert g[0] == topo.origin_distances.sum() and g[-1] == 0
    assert (np.diff(g) < 0).all() and (np.diff(g, 2) >= 0).all()
    assert [len(s) for s in opened] == list(range(len(g)))
    for inst in instances:
        w = inst.weights[0]
        assert w @ g[allocate_by_gain(w, g, inst.c_sum)] == w @ g[allocate_by_dp(w, g, inst.c_sum)]


def test_oracle_feasible_at_curve_cost(desk):
    _, instances, curve = desk
    for inst in instances:
        optimum = kmedian_optimum(inst, curve)
        assert check_feasibility(optimum.placement, inst) == []
        assert placement_cost(optimum.placement, inst) == optimum.cost


def test_local_search_makes_no_swap_from_optimum(desk):
    _, instances, curve = desk
    for inst in instances:
        refined = local_search(inst, kmedian_optimum(inst, curve).placement, 10 * inst.n * inst.m)
        assert refined.diagnostics["iterations"] == 0


def test_solve_gap_pinned(desk):
    """solve never beats the optimum, and its gap at each cache fraction is
    pinned, so a change that moves it shows."""
    seed, instances, curve = desk
    gaps = []
    for inst in instances:
        optimum = kmedian_optimum(inst, curve).cost
        cost = solve(inst).cost
        assert cost >= optimum - 1e-9
        gaps.append(round(100 * (cost - optimum) / optimum, 3))
    assert tuple(gaps) == GAPS[seed]


@pytest.mark.parametrize("seed,alpha", [(11, 0.8), (0, 0.4), (1, 0.6), (2, 1.0), (3, 1.2)])
def test_matches_exact_solve(seed, alpha):
    """On criterion 7's 4 x 5 instance (seed 11, alpha 0.8) and the same
    cell at other seeds and skews, the certificate's optimum is the
    exhaustive one."""
    inst = build_instance(SimConfig(Scheme.OPTIMIZED, nodes=4, objects=5, alpha=alpha, cache_fraction=0.2, seed=seed))
    optimum = kmedian_optimum(inst, kmedian_curve(inst.topology))
    assert check_feasibility(optimum.placement, inst) == []
    assert optimum.cost == exact_solve(inst).cost


def test_dp_on_a_concave_step():
    """A second copy that gains more than the first defeats marginal gain; the DP takes both."""
    g = np.array([10.0, 9.0, 0.0])
    w = np.array([1.0, 1.0])
    assert allocate_by_gain(w, g, 2).tolist() == [1, 1]  # 18 hops
    assert sorted(allocate_by_dp(w, g, 2).tolist()) == [0, 2]  # 10 hops
    assert allocate_by_dp(np.array([1.0, 2.0]), g, 3).tolist() == [1, 2]


def test_rejects_unequal_rows():
    topo = generate_power_law_topology(4, 1, seed=3)
    rates = np.ones((4, 5))
    rates[2, 1] = 2.0
    inst = Instance(topo, Catalog(zipf_popularity(5, 0.8)), DemandMatrix(rates), 4)
    with pytest.raises(ValueError, match="rows that are all equal"):
        kmedian_optimum(inst, kmedian_curve(topo))
