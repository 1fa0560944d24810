"""Benchmark of cachenet sweeps, end to end and layer by layer.

    python3 bench/run.py --workload closed_loop --seed 1 --seconds 40 --trace 0

Each round runs the workload's flat JSON sweep spec through ``cachenet
run`` (``cli.main``, ``--jobs 1``), checks every cell's outputs against the
benchmark's own arithmetic, and times each cell's set-up and serving from
outside.  Rounds repeat the same cells until ``--seconds`` would be
exceeded, at least three times; each cell's times are its slowest over the
rounds.  The last line of standard output is one JSON object: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import checks
from instrument import Probe, perf
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
LCE = ("LCE_LRU", "LCE_LFU")
MIN_ROUNDS = 3
SPEC_DEFAULTS = {"origin_penalty": 3, "smoothing": 1.0}  # documented sweep-spec defaults


class Bench:
    def __init__(self, workload, seed: int, trace: bool, work: Path):
        from cachenet import cli

        self.wl = workload
        self.seed = seed
        self.cli = cli
        self.work = work
        self.fields = {**SPEC_DEFAULTS, **workload.fields}
        self.probe = Probe(self.on_cell, trace)
        self.distances = {}  # (n, edges) -> BFS hop matrix
        self.attempted = 0
        self.failed = 0
        self.errors = []  # output problems not tied to one cell
        self.results = {}  # each cell's reported results, which every round must repeat
        self.records = {}  # summaries of this round's cells that passed
        self.cell_failures = []  # this round's failure messages

    # --- one cell ----------------------------------------------------------

    def on_cell(self, cell, error) -> None:
        """Check a finished cell and keep only its small summary."""
        cfg = cell.config
        key = (float(cfg.cache_fraction), cfg.scheme.value, int(cfg.seed))
        if error is not None:
            self.cell_failures.append(f"{key}: raised {error!r}")
            return
        try:
            problems, summary = self._check_cell(cell)
        except Exception as exc:  # a malformed output can break the check itself
            problems, summary = [f"check raised {exc!r}"], None
        if problems:
            self.cell_failures += [f"{key}: {p}" for p in problems]
        else:
            self.records[key] = summary

    def _check_cell(self, cell):
        cfg, report, topo = cell.config, cell.report, cell.topology
        key_edges = (topo.node_count, topo.edges)
        dist = self.distances.get(key_edges)
        if dist is None:
            dist = self.distances[key_edges] = checks.hop_distances(topo.node_count, topo.edges)
        problems = checks.check_topology(topo.hop_matrix, dist, topo.origin_penalty,
                                         self.fields["origin_penalty"])
        dorg = dist[:, topo.origin_attach] + topo.origin_penalty
        tele = report.telemetry
        problems += checks.check_telemetry(tele.request_count, tele.hit_count, tele.hops_accumulated,
                                           dorg, cfg.epochs * cfg.requests_per_epoch,
                                           cfg.scheme.value == "NO_CACHE")
        problems += checks.check_epoch_totals([e.avg_hops for e in report.epoch_metrics],
                                              [e.requests for e in report.epoch_metrics],
                                              int(tele.hops_accumulated.sum()))
        sizes = np.ones(cfg.objects)  # sweep specs have unit-size objects
        pool = float(cfg.nodes * int(round(cfg.cache_fraction * cfg.objects)))
        for counts, decision, greedy_x in cell.decisions:
            placement = decision.placement
            problems += checks.check_decision(placement.x, placement.budgets, pool, sizes,
                                              counts + self.fields["smoothing"], dist, dorg,
                                              decision.estimated_cost, greedy_x)
        summary = {
            "report": (report.avg_hops, report.hit_ratio, report.total_requests),
            "requests": sum(e.requests for e in report.epoch_metrics),
            "setup_s": cell.t_serve - cell.t0,
            "serve_s": cell.t1 - cell.t_serve,
            "lce_hits": int(tele.hit_count.sum()) if cfg.scheme.value in LCE else 0,
        }
        return problems, summary

    # --- one round ---------------------------------------------------------

    def run_round(self, spec: dict, label) -> dict:
        """Run one sweep through ``cachenet run`` and check its outputs;
        returns the summaries of the cells that passed, by cell."""
        self.probe.round = label
        self.records, self.cell_failures = {}, []
        out = self.work / f"round-{label}"
        spec = {**spec, "output": str(out)}
        spec_path = self.work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        cells = len(spec["values"]) * len(spec["schemes"]) * len(spec["seeds"])
        printed = io.StringIO()
        try:
            with redirect_stdout(printed):
                rc = self.cli.main(["run", str(spec_path), "--jobs", "1"])
        except Exception as exc:  # a cell raised: the sweep stops there
            rc = None
            self.cell_failures.append(f"sweep raised {exc!r}")
        if rc not in (0, None):
            self.cell_failures.append(f"cachenet run exited {rc}: {printed.getvalue().strip()}")
        self.attempted += cells
        self.failed += cells - len(self.records)
        for msg in self.cell_failures:
            print(f"bench: round {label}: {msg}", file=sys.stderr)
        if rc == 0:
            self._check_csvs(out, label)
        shutil.rmtree(out, ignore_errors=True)
        return self.records

    def _check_csvs(self, out: Path, label) -> None:
        per_run = checks.read_csv(out / "per_run.csv")
        problems = checks.check_per_run(per_run, {k: r["report"] for k, r in self.records.items()})
        problems += checks.check_summary(per_run, checks.read_csv(out / "summary.csv"))
        for key, r in self.records.items():
            first = self.results.setdefault((label == "warmup", key), r["report"])
            if first != r["report"]:
                problems.append(f"cell {key} gave {r['report']}, an earlier round gave {first}")
        for p in problems:
            print(f"bench: round {label}: {p}", file=sys.stderr)
        self.errors += problems

    # --- the run -----------------------------------------------------------

    def run(self, seconds: float) -> list:
        t_start = perf()
        self.probe.install()
        try:
            self.run_round(self.wl.warmup_spec(self.seed), "warmup")
            spec = self.wl.spec(self.seed)
            rounds = []
            while True:
                t = perf()
                rounds.append(self.run_round(spec, len(rounds)))
                if len(rounds) >= MIN_ROUNDS and perf() - t_start + (perf() - t) > seconds:
                    return rounds
        finally:
            self.probe.restore()


def slowest_sum(rounds: list, cells, name: str) -> float:
    """Sum over cells of each cell's slowest round.

    The host runs the same code up to a third faster in bursts of seconds to
    a minute; the slowest of three or more repeats is its steady speed, and
    on the same runs spreads half as much as the median does (README)."""
    return math.fsum(max(r[k][name] for r in rounds) for k in cells)


def requests_per_s(rounds: list, cells) -> float:
    serve_s = slowest_sum(rounds, cells, "serve_s")
    return sum(rounds[0][k]["requests"] for k in cells) / serve_s if cells else 0.0


def end_to_end(rounds: list) -> dict:
    cells = set(rounds[0]).intersection(*rounds[1:])  # cells that passed in every round
    first = [rounds[0][k] for k in cells]
    measured = sum(c["report"][2] for c in first)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {
        "requests_per_s": {"value": requests_per_s(rounds, cells), "unit": "requests/s"},
        "setup_s": {"value": slowest_sum(rounds, cells, "setup_s"), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "avg_hops": {"value": math.fsum(c["report"][0] * c["report"][2] for c in first) / measured
                     if measured else 0.0, "unit": "hops"},
    }


def per_layer(probe: Probe, rounds: list) -> dict:
    """Per-layer metrics of each measured round; medians over rounds."""
    per_round = [layer_round(probe, i, r) for i, r in enumerate(rounds)]
    units = {name: unit for name, (unit, _) in per_round[0].items()}
    return {name: {"value": (statistics.median_low if unit == "count" else statistics.median)(
                       pr[name][1] for pr in per_round), "unit": unit}
            for name, unit in units.items()}


def layer_round(probe: Probe, rnd: int, records: dict) -> dict:
    spans = [s for s in probe.spans if s[1] == rnd]

    def total(name):
        return math.fsum(s[3] - s[2] for s in spans if s[0] == name)

    def n(name):
        return sum(1 for s in spans if s[0] == name)

    def count(name):
        return probe.counts.get((rnd, name), 0)

    epochs = [s for s in spans if s[0] == "simnet.run_epoch"]
    lce = [s for s in epochs if s[5] > 0]  # epochs that served requests one at a time
    lce_requests = sum(s[5] for s in lce)
    admitted = count("simnet.admitted")
    greedy_cost = count("optimizer.greedy_cost")
    cells = n("experiment.cell")
    return {
        "netmodel.topology_s": ("s", total("netmodel.topology")),
        "netmodel.next_hop_s": ("s", total("netmodel.next_hop")),
        "netmodel.builds": ("count", n("netmodel.topology")),
        "simnet.pinned_epoch_s": ("s", math.fsum(s[3] - s[2] for s in epochs if s[5] == 0)),
        "simnet.request_us": ("us", 1e6 * math.fsum(s[3] - s[2] for s in lce) / lce_requests
                              if lce_requests else 0.0),
        "simnet.inserts": ("count", admitted),
        "simnet.evictions": ("count", count("simnet.evictions")),
        "simnet.hits_per_insert": ("ratio", sum(r["lce_hits"] for r in records.values()) / admitted if admitted else 0.0),
        "simnet.apply_placement_s": ("s", total("simnet.apply_placement")),
        "analytics.decision_s": ("s", total("analytics.decision")),
        "analytics.decisions": ("count", n("analytics.decision")),
        "optimizer.greedy_s": ("s", total("optimizer.greedy")),
        "optimizer.local_search_s": ("s", total("optimizer.local_search")),
        "optimizer.swaps": ("count", count("optimizer.swaps")),
        "optimizer.ls_cost_reduction": ("ratio", (greedy_cost - count("optimizer.ls_cost")) / greedy_cost
                                        if greedy_cost else 0.0),
        "experiment.cell_s": ("s", total("experiment.cell") / cells if cells else 0.0),
        "experiment.cells": ("count", cells),
    }


def self_times(probe: Probe) -> dict:
    """Seconds inside each span name, minus the time its child spans cover."""
    child = [0.0] * len(probe.spans)
    for s in probe.spans:
        if s[4] is not None:
            child[s[4]] += s[3] - s[2]
    out = {}
    for i, s in enumerate(probe.spans):
        out[s[0]] = out.get(s[0], 0.0) + (s[3] - s[2]) - child[i]
    return out


def write_trace(bench: Bench, rounds: list, path: Path) -> None:
    probe = bench.probe
    cells = set(rounds[0]).intersection(*rounds[1:])
    doc = {
        "workload": bench.wl.name,
        "seed": bench.seed,
        "rounds": len(rounds),
        "requests_per_s_traced": {"all": requests_per_s(rounds, cells), **{
            scheme: requests_per_s(rounds, {k for k in cells if k[1] == scheme})
            for scheme in sorted({k[1] for k in cells})}},
        "per_round": [{k: v[1] for k, v in layer_round(probe, i, r).items()} for i, r in enumerate(rounds)],
        "self_s": self_times(probe),
        "counts": [[str(rnd), name, value] for (rnd, name), value in probe.counts.items()],
        "spans": [[name, str(rnd), t0, t1, parent, req] for name, rnd, t0, t1, parent, req in probe.spans],
    }
    path.write_text(json.dumps(doc))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "cachenet" / "__init__.py").is_file():
        print(f"bench: no cachenet package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace), work)
        rounds = bench.run(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(bench, rounds, trace_path)
        print(f"bench: trace written to {trace_path}", file=sys.stderr)
        metrics = per_layer(bench.probe, rounds)
    else:
        metrics = end_to_end(rounds)
    print(f"bench: {len(rounds)} measured rounds of {bench.wl.cells()} cells", file=sys.stderr)
    print(json.dumps({"correct": not bench.errors, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
