"""Solve the joint placement / budget problem and sanity-check the solvers.

Shows the exhaustive solver agreeing with greedy + local search on a tiny
instance, then solves a full-scale instance and reports the average
response hops at a few cache budgets.
"""

import time

import numpy as np

from cachenet import (
    Catalog,
    Instance,
    average_hops,
    build_demand,
    check_feasibility,
    exact_solve,
    generate_power_law_topology,
    solve,
)

# tiny instance: the exhaustive solver is the ground truth
topo = generate_power_law_topology(4, 1, seed=3)
catalog = Catalog.uniform_sizes(5, alpha=1.0)
demand = build_demand(topo, catalog)
tiny = Instance(topo, catalog, demand, c_sum=4.0)

exact = exact_solve(tiny)
pipeline = solve(tiny)
print(f"tiny instance (4 routers, 5 objects, budget 4):")
print(f"  exhaustive optimum cost: {exact.cost:.4f}")
print(f"  greedy + local search:   {pipeline.cost:.4f}")
print(f"  feasible: {not check_feasibility(pipeline.placement, tiny)}")

# full-scale instance
topo = generate_power_law_topology(64, 2, seed=7)
catalog = Catalog.uniform_sizes(200, alpha=0.8)
demand = build_demand(topo, catalog)

print("\nfull scale (64 routers, 200 objects):")
print("  cache %   budget   avg hops   copies   seconds")
for fraction in (0.01, 0.05, 0.10):
    c_sum = 64 * round(fraction * 200)
    inst = Instance(topo, catalog, demand, float(c_sum))
    t0 = time.time()
    result = solve(inst)
    hops = average_hops(result.cost, inst)
    print(f"  {fraction:7.0%}  {c_sum:7d}  {hops:9.3f}  {int(result.placement.x.sum()):7d}"
          f"  {time.time() - t0:8.2f}")
