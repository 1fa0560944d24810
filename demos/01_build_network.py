"""Build a network instance and look at its pieces.

Generates the default 64-router power-law topology, a 200-object Zipf
catalog, and the demand matrix, then prints a few summary statistics and
writes the interchange files.
"""

import numpy as np

from cachenet import Catalog, build_demand, generate_power_law_topology, zipf_popularity
from cachenet.netmodel import catalog_to_csv, demand_to_csv, save_topology

topology = generate_power_law_topology(n=64, m_attach=2, seed=7)
print(f"routers: {topology.node_count}, edges: {len(topology.edges)}")
deg = topology.degrees()
print(f"degree: min {deg.min()}, median {int(np.median(deg))}, max {deg.max()}")
print(f"origin attaches at router {topology.origin_attach} "
      f"(+{topology.origin_penalty} hop penalty)")
print(f"network diameter: {topology.hop_matrix.max()} hops")

alpha = 0.8
catalog = Catalog(zipf_popularity(200, alpha))
print(f"\ncatalog: {catalog.object_count} unit-size objects, Zipf alpha={alpha}")
print(f"top-5 popularity: {np.round(catalog.popularity[:5], 4)}")
print(f"head/next ratio p1/p2 = {catalog.popularity[0] / catalog.popularity[1]:.4f} "
      f"(= 2^0.8)")

demand = build_demand(topology, catalog)
print(f"\ndemand matrix: {demand.rates.shape}, total rate {demand.rates.sum():.1f}/epoch")

save_topology(topology, "topology.txt")
catalog_to_csv(catalog, "catalog.csv")
demand_to_csv(demand, "demand.csv")
print("\nwrote topology.txt, catalog.csv, demand.csv")
