"""Shows that every output check in ``checks.py`` passes on real outputs
and fails on a deliberately corrupted copy of them.

    python3 bench/selftest.py

Runs one small sweep (OPTIMIZED and NO_CACHE cells) through ``cachenet
run`` with the benchmark's probe installed, then feeds each check the
captured outputs, unchanged and corrupted.  Exits 1 if a check misses a
corruption or rejects a correct output.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

import checks
from instrument import Probe
from run import OUT, ROOT

SPEC = {"sweep": "cache_fraction", "values": [0.05, 0.1], "schemes": ["OPTIMIZED", "NO_CACHE"],
        "seeds": [3], "nodes": 16, "objects": 40, "requests_per_epoch": 800, "epochs": 4,
        "warmup_epochs": 1}


def capture(work: Path):
    """Run SPEC and return (cells, per_run rows, summary rows)."""
    sys.path.insert(0, str(ROOT / "src"))
    from cachenet import cli

    cells = []
    probe = Probe(lambda cell, error: cells.append(cell), trace=False)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps({**SPEC, "output": str(work / "out")}))
    probe.install()
    try:
        with redirect_stdout(StringIO()):
            assert cli.main(["run", str(spec_path), "--jobs", "1"]) == 0
    finally:
        probe.restore()
    return (cells, checks.read_csv(work / "out" / "per_run.csv"),
            checks.read_csv(work / "out" / "summary.csv"))


class Tally:
    def __init__(self):
        self.bad = 0

    def expect(self, label: str, problems: list, ok: bool) -> None:
        good = (not problems) == ok
        self.bad += not good
        what = "accepts the real output" if ok else "rejects the corruption"
        print(f"{'PASS' if good else 'FAIL'} {label}: {what}" + ("" if ok else f" ({problems[:1]})"))


def main() -> int:
    t = Tally()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        cells, per_run, summary = capture(Path(tmp))
    opt = next(c for c in cells if c.config.scheme.value == "OPTIMIZED" and c.decisions)
    none = next(c for c in cells if c.config.scheme.value == "NO_CACHE")

    topo = opt.topology
    dist = checks.hop_distances(topo.node_count, topo.edges)
    dorg = dist[:, topo.origin_attach] + topo.origin_penalty
    t.expect("topology", checks.check_topology(topo.hop_matrix, dist, topo.origin_penalty, 3), True)
    hop = topo.hop_matrix.copy()
    hop[0, 1] += 1
    t.expect("topology: one hop distance changed", checks.check_topology(hop, dist, 3, 3), False)
    t.expect("topology: origin penalty changed", checks.check_topology(topo.hop_matrix, dist, 2, 3), False)

    def telemetry(cell, **corrupt):
        tele = cell.report.telemetry
        arrays = {"requests": tele.request_count.copy(), "hits": tele.hit_count.copy(),
                  "hops": tele.hops_accumulated.copy()}
        for name, (i, k, delta) in corrupt.items():
            arrays[name][i, k] += delta
        cfg = cell.config
        d = checks.hop_distances(cell.topology.node_count, cell.topology.edges)
        d_org = d[:, cell.topology.origin_attach] + cell.topology.origin_penalty
        return checks.check_telemetry(arrays["requests"], arrays["hits"], arrays["hops"], d_org,
                                      cfg.epochs * cfg.requests_per_epoch,
                                      cfg.scheme.value == "NO_CACHE")

    tele = opt.report.telemetry
    i, k = np.unravel_index(np.argmax(tele.request_count), tele.request_count.shape)
    t.expect("telemetry (OPTIMIZED)", telemetry(opt), True)
    t.expect("telemetry (NO_CACHE)", telemetry(none), True)
    t.expect("telemetry: one request added", telemetry(opt, requests=(i, k, 1)), False)
    t.expect("telemetry: hits above requests",
             telemetry(opt, hits=(i, k, int(tele.request_count[i, k]) + 1)), False)
    t.expect("telemetry: hops beyond the origin",
             telemetry(opt, hops=(i, k, int(tele.request_count[i, k] * dorg[i]) + 1)), False)
    j, m = np.unravel_index(np.argmax(none.report.telemetry.request_count), tele.request_count.shape)
    t.expect("telemetry: NO_CACHE request served early", telemetry(none, hops=(j, m, -1)), False)

    epochs = opt.report.epoch_metrics
    hops_total = int(tele.hops_accumulated.sum())
    t.expect("epoch totals", checks.check_epoch_totals([e.avg_hops for e in epochs],
                                                       [e.requests for e in epochs], hops_total), True)
    t.expect("epoch totals: one epoch's hops changed",
             checks.check_epoch_totals([e.avg_hops + 0.01 for e in epochs[:1]] + [e.avg_hops for e in epochs[1:]],
                                       [e.requests for e in epochs], hops_total), False)

    counts, decision, greedy_x = opt.decisions[-1]
    cfg = opt.config
    sizes = np.ones(cfg.objects)
    pool = float(cfg.nodes * round(cfg.cache_fraction * cfg.objects))
    q_hat = counts + 1.0
    x, budgets = decision.placement.x, decision.placement.budgets

    def decide(x=x, budgets=budgets, cost=decision.estimated_cost, greedy=greedy_x):
        return checks.check_decision(x, budgets, pool, sizes, q_hat, dist, dorg, cost, greedy)

    t.expect("decision", decide(), True)
    inflated = budgets.copy()
    inflated[0] += 1
    t.expect("decision: one budget inflated", decide(budgets=inflated), False)
    full = int(np.argmax(x.sum(axis=1)))
    shrunk = budgets.copy()
    shrunk[full] -= 1
    shrunk[(full + 1) % len(shrunk)] += 1
    t.expect("decision: residents over one budget", decide(budgets=shrunk), False)
    negative = budgets.copy()
    negative[1] -= budgets[1] + 1
    negative[0] += budgets[1] + 1
    t.expect("decision: negative budget", decide(budgets=negative), False)
    t.expect("decision: estimated cost off by 1e-6", decide(cost=decision.estimated_cost * (1 + 1e-6)), False)
    worse = x.copy()
    node, obj = np.argwhere(x)[0]
    worse[node, obj] = False
    worse[node, np.flatnonzero(~x[node])[-1]] = True  # the least popular object it lacks
    worse_cost = checks.placement_cost(worse, q_hat, sizes, dist, dorg)
    t.expect("decision: local search ended above greedy",
             decide(x=worse, cost=worse_cost, greedy=x), False)

    reports = {(float(r[0]), r[1], int(r[2])): (float(r[3]), float(r[4]), int(r[5])) for r in per_run[1:]}
    t.expect("per_run.csv", checks.check_per_run(per_run, reports), True)
    t.expect("summary.csv", checks.check_summary(per_run, summary), True)
    bad_rows = copy.deepcopy(per_run)
    bad_rows[1][3] = repr(float(bad_rows[1][3]) + 1e-6)
    t.expect("per_run.csv: one avg_hops changed", checks.check_per_run(bad_rows, reports), False)
    t.expect("per_run.csv: rows out of order",
             checks.check_per_run([per_run[0]] + per_run[1:][::-1], reports), False)
    bad_summary = copy.deepcopy(summary)
    bad_summary[1][2] = repr(float(bad_summary[1][2]) * (1 + 1e-6))
    t.expect("summary.csv: one mean changed", checks.check_summary(per_run, bad_summary), False)
    bad_summary = copy.deepcopy(summary)
    bad_summary[1][5] = "7"
    t.expect("summary.csv: one run count changed", checks.check_summary(per_run, bad_summary), False)

    print(f"{t.bad} check(s) misbehaved")
    return 1 if t.bad else 0


if __name__ == "__main__":
    sys.exit(main())
