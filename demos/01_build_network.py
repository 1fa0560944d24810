"""Build a network instance and look at its pieces.

Generates the default 64-router power-law topology, a 200-object Zipf
catalog, and the demand matrix, then prints a few summary statistics and
writes them as plain-text and CSV files: topology.txt, catalog.csv and
demand.csv.
"""

import numpy as np

from cachenet import Catalog, build_demand, generate_power_law_topology, zipf_popularity


def save_topology(topology, path):
    """Edge-list text format: header 'nodes N origin A penalty P', then one
    'i j' pair per line."""
    with open(path, "w") as fh:
        fh.write(f"nodes {topology.node_count} origin {topology.origin_attach} "
                 f"penalty {topology.origin_penalty}\n")
        for u, v in sorted(topology.edges):
            fh.write(f"{u} {v}\n")


def catalog_to_csv(catalog, path):
    with open(path, "w") as fh:
        fh.write("object,popularity\n")
        for k in range(catalog.object_count):
            fh.write(f"{k},{float(catalog.popularity[k])!r}\n")


def demand_to_csv(demand, path):
    n, m = demand.rates.shape
    with open(path, "w") as fh:
        fh.write("node,object,rate\n")
        for i in range(n):
            for k in range(m):
                fh.write(f"{i},{k},{float(demand.rates[i, k])!r}\n")


topology = generate_power_law_topology(n=64, m_attach=2, seed=7)
print(f"routers: {topology.node_count}, edges: {len(topology.edges)}")
deg = (topology.hop_matrix == 1).sum(axis=1)  # the hop-1 pairs are the edges
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
