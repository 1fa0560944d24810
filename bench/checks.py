"""Output checks computed with the benchmark's own arithmetic.

Each function takes plain arrays and returns a list of failure messages,
empty when the output is correct, so a corrupted copy of an output can be
fed to it directly (see ``selftest.py``).  Distances come from the
benchmark's own breadth-first search over the topology's edge list, never
from the program's hop matrix.
"""

from __future__ import annotations

import csv
import math
import statistics
from collections import defaultdict

import numpy as np

REL_TOL = 1e-9


def hop_distances(n: int, edges) -> np.ndarray:
    """All-pairs hop counts, one BFS level at a time for every source at once."""
    adj = np.zeros((n, n), dtype=np.float32)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    frontier = np.eye(n, dtype=bool)
    reached = frontier.copy()
    level = 0
    while frontier.any():
        level += 1
        frontier = ((frontier.astype(np.float32) @ adj) > 0) & ~reached
        dist[frontier] = level
        reached |= frontier
    return dist


def nearest_copy_distances(x: np.ndarray, dist: np.ndarray, dorg: np.ndarray) -> np.ndarray:
    """d[i, k] = hops from router i to the closest holder of k, or to the origin."""
    d = np.repeat(dorg[:, None].astype(float), x.shape[1], axis=1)
    for k in range(x.shape[1]):
        holders = np.flatnonzero(x[:, k])
        if holders.size:
            d[:, k] = np.minimum(d[:, k], dist[:, holders].min(axis=1))
    return d


def placement_cost(x, q, sizes, dist, dorg) -> float:
    return float((q * nearest_copy_distances(x, dist, dorg) * sizes[None, :]).sum())


def check_topology(hop_matrix, dist, origin_penalty, expected_penalty) -> list:
    out = []
    if (dist < 0).any():
        out.append("topology is disconnected")
    if hop_matrix.shape != dist.shape or not np.array_equal(hop_matrix, dist):
        bad = int((np.asarray(hop_matrix) != dist).sum()) if hop_matrix.shape == dist.shape else -1
        out.append(f"hop matrix differs from BFS distances in {bad} entries")
    if origin_penalty != expected_penalty:
        out.append(f"origin penalty {origin_penalty}, spec says {expected_penalty}")
    return out


def check_telemetry(requests, hits, hops, dorg, expected_requests, no_cache) -> list:
    """Counts are conserved and no request travels further than the origin."""
    out = []
    if int(requests.sum()) != expected_requests:
        out.append(f"telemetry counts {int(requests.sum())} requests, expected {expected_requests}")
    if (requests < 0).any() or (hits < 0).any() or (hops < 0).any():
        out.append("negative telemetry counter")
    if (hits > requests).any():
        out.append(f"hits exceed requests at {int((hits > requests).sum())} (router, object) pairs")
    bound = requests * dorg[:, None]
    if (hops > bound).any():
        out.append(f"hops exceed the origin distance at {int((hops > bound).sum())} pairs")
    if no_cache and not np.array_equal(hops, bound):
        out.append("NO_CACHE hops differ from the origin distance")
    if no_cache and hits.any():
        out.append("NO_CACHE reports cache hits")
    return out


def check_epoch_totals(epoch_hops, epoch_requests, telemetry_hops) -> list:
    """Per-epoch averages, weighted by requests, add up to the telemetry's hops."""
    total = math.fsum(h * r for h, r in zip(epoch_hops, epoch_requests))
    if not math.isclose(total, float(telemetry_hops), rel_tol=REL_TOL, abs_tol=1e-6):
        return [f"epoch hops sum to {total}, telemetry has {telemetry_hops}"]
    return []


def check_decision(x, budgets, pool, sizes, q_hat, dist, dorg, estimated_cost, greedy_x) -> list:
    """A controller placement is feasible, its cost is what it claims, and
    local search did not end above the greedy placement it started from."""
    out = []
    used = x.astype(float) @ sizes
    if (used > budgets + 1e-9).any():
        out.append(f"residents exceed the budget at {int((used > budgets + 1e-9).sum())} routers")
    if (budgets < -1e-9).any():
        out.append("negative budget")
    if not math.isclose(math.fsum(budgets), pool, rel_tol=0, abs_tol=1e-9):
        out.append(f"budgets sum to {math.fsum(budgets)}, pool is {pool}")
    cost = placement_cost(x, q_hat, sizes, dist, dorg)
    if not math.isclose(cost, estimated_cost, rel_tol=REL_TOL):
        out.append(f"estimated cost {estimated_cost}, recomputed {cost}")
    if greedy_x is None:
        out.append("no greedy placement seen for this decision")
    else:
        greedy = placement_cost(greedy_x, q_hat, sizes, dist, dorg)
        if cost > greedy * (1 + REL_TOL):
            out.append(f"local search ended at {cost}, above the greedy cost {greedy}")
    return out


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_per_run(rows, reports) -> list:
    """per_run.csv holds one row per cell, in canonical order, with the values
    the cell's report returned.  ``reports`` maps (value, scheme, seed) to
    (avg_hops, hit_ratio, total_requests)."""
    out = []
    body = rows[1:]
    keys = [(float(r[0]), r[1], int(r[2])) for r in body]
    if keys != sorted(keys):
        out.append("per_run.csv rows are not in canonical order")
    if sorted(keys) != sorted(reports):
        out.append(f"per_run.csv has {len(keys)} cells, the sweep ran {len(reports)}")
        return out
    for key, r in zip(keys, body):
        if (float(r[3]), float(r[4]), int(r[5])) != reports[key]:
            out.append(f"per_run.csv row {key} differs from the cell's report")
    return out


def check_summary(per_run_rows, summary_rows) -> list:
    """summary.csv equals the benchmark's own aggregation of per_run.csv."""
    groups = defaultdict(list)
    for r in per_run_rows[1:]:
        groups[(float(r[0]), r[1])].append((float(r[3]), float(r[4])))
    expected = []
    for key in sorted(groups):
        hops = [h for h, _ in groups[key]]
        hit = [h for _, h in groups[key]]
        std = statistics.stdev(hops) if len(hops) > 1 else 0.0
        expected.append((key, statistics.fmean(hops), std, statistics.fmean(hit), len(hops)))
    got = [((float(r[0]), r[1]), float(r[2]), float(r[3]), float(r[4]), int(r[5]))
           for r in summary_rows[1:]]
    if [g[0] for g in got] != [e[0] for e in expected]:
        return ["summary.csv groups differ from per_run.csv"]
    out = []
    for g, e in zip(got, expected):
        close = all(math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12) for a, b in zip(g[1:4], e[1:4]))
        if not close or g[4] != e[4]:
            out.append(f"summary.csv row {g[0]} is {g[1:]}, per_run.csv gives {e[1:]}")
    return out
