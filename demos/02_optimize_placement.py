"""Solve the joint placement / budget problem and compare the solvers.

Solves a full-scale instance at a few cache budgets, with greedy
construction alone and with greedy + swap local search (the production
``solve``), and reports the average response hops of each: the swap search
never costs more than its greedy start.
"""

import time

from cachenet import (
    Catalog,
    Instance,
    average_hops,
    build_demand,
    check_feasibility,
    generate_power_law_topology,
    greedy_solve,
    solve,
    zipf_popularity,
)

topo = generate_power_law_topology(64, 2, seed=0)
catalog = Catalog(zipf_popularity(200, 0.8))
demand = build_demand(topo, catalog)

print("full scale (64 routers, 200 objects), average response hops:")
print("  cache %     pool   greedy   + swaps   swaps   copies   feasible   seconds")
for fraction in (0.01, 0.05, 0.10):
    c_sum = 64 * round(fraction * 200)
    inst = Instance(topo, catalog, demand, c_sum)
    greedy = greedy_solve(inst)
    t0 = time.time()
    result = solve(inst)
    elapsed = time.time() - t0
    print(f"  {fraction:7.0%}  {c_sum:7d}  {average_hops(greedy.cost, inst):7.3f}"
          f"  {average_hops(result.cost, inst):8.3f}  {result.diagnostics['swaps']:6d}"
          f"  {int(result.placement.x.sum()):7d}  {not check_feasibility(result.placement, inst)!s:>9}"
          f"  {elapsed:8.2f}")
