"""Instrumentation from outside the program.

The probe replaces module attributes that the package calls through (for
example ``experiment.run_simulation`` or ``optimizer.local_search``) with
wrappers, in every ``cachenet`` module that holds the same function object,
and puts the originals back on ``restore``.  It only uses public names.

Always installed (the end-to-end instrument, a few calls per cell):
  * ``run_simulation``: one sweep cell; its start, end and report;
  * ``run_epoch``: the first epoch of a cell ends its set-up;
  * ``controller_epoch`` and ``greedy_solve``: each controller decision,
    the telemetry it was made from and the greedy placement it refined,
    kept for the output checks.

Installed only when tracing: spans for topology build, next-hop table,
placement install, greedy, local search, controller decision and epoch,
plus counts at ``handle_request`` and ``Cache.insert``.  Spans and counts
stay in memory until the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

perf = time.perf_counter


@dataclass
class Cell:
    config: object
    t0: float
    t_serve: float | None = None
    t1: float | None = None
    topology: object = None
    decisions: list = field(default_factory=list)  # (request counts, decision, greedy x)
    report: object = None


class Probe:
    def __init__(self, on_cell, trace: bool):
        import cachenet
        from cachenet import analytics, cli, experiment, netmodel, optimizer, simnet

        self.modules = [cachenet, analytics, cli, experiment, netmodel, optimizer, simnet]
        self.on_cell = on_cell  # called with (cell, error) after every cell
        self.trace = trace
        self.round = None
        self.cell = None
        self._greedy_x = None
        self._saved = []
        # tracing state
        self.spans = []  # [name, round, t0, t1, parent, requests handled inside]
        self.counts = {}  # (round, name) -> number
        self._stack = []
        self._requests = 0

        wrap = [(simnet.run_simulation, self._cell),
                (simnet.run_epoch, self._epoch),
                (analytics.controller_epoch, self._decision),
                (optimizer.greedy_solve, self._greedy)]
        if trace:
            wrap += [(netmodel.generate_power_law_topology, self._span("netmodel.topology")),
                     (netmodel.bfs_next_hop, self._span("netmodel.next_hop")),
                     (simnet.apply_placement, self._span("simnet.apply_placement")),
                     (optimizer.local_search, self._span("optimizer.local_search", self._swaps)),
                     (simnet.handle_request, self._request)]
        self._wrap = wrap
        self._cache_class = simnet.Cache

    # --- install / restore -------------------------------------------------

    def install(self) -> None:
        for original, make in self._wrap:
            wrapper = make(original)
            holders = [(mod, name) for mod in self.modules
                       for name, value in vars(mod).items() if value is original]
            if not holders:
                raise RuntimeError(f"cachenet no longer holds {original.__qualname__}")
            for mod, name in holders:
                self._saved.append((mod, name, original))
                setattr(mod, name, wrapper)
        if self.trace:
            insert = self._cache_class.insert
            self._saved.append((self._cache_class, "insert", insert))
            self._cache_class.insert = self._insert(insert)

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # --- tracing helpers ---------------------------------------------------

    def count(self, name: str, n=1) -> None:
        key = (self.round, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.round, perf(), None, parent, self._requests])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = perf()
        span[5] = self._requests - span[5]
        self._stack.pop()

    def _span(self, name, on_result=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if on_result is not None:
                    on_result(result)
                return result
            return wrapper
        return make

    # --- wrappers ----------------------------------------------------------

    def _cell(self, fn):
        def run_simulation(config, *args, **kwargs):
            cell = self.cell = Cell(config, perf())
            idx = self._open("experiment.cell") if self.trace else None
            try:
                cell.report = fn(config, *args, **kwargs)
            except Exception as exc:
                self.cell = None
                self.on_cell(cell, exc)
                raise
            finally:
                cell.t1 = perf()
                if idx is not None:
                    self._close(idx)
            self.cell = None
            self.on_cell(cell, None)
            return cell.report
        return run_simulation

    def _epoch(self, fn):
        def run_epoch(config, state, *args, **kwargs):
            cell = self.cell
            if cell is not None and cell.t_serve is None:
                cell.t_serve = perf()
                cell.topology = state.instance.topology
            if not self.trace:
                return fn(config, state, *args, **kwargs)
            idx = self._open("simnet.run_epoch")
            try:
                return fn(config, state, *args, **kwargs)
            finally:
                self._close(idx)
        return run_epoch

    def _decision(self, fn):
        def controller_epoch(telemetry_log, *args, **kwargs):
            counts = telemetry_log.request_count.copy()
            self._greedy_x = None
            idx = self._open("analytics.decision") if self.trace else None
            try:
                decision = fn(telemetry_log, *args, **kwargs)
            finally:
                if idx is not None:
                    self._close(idx)
            if self.cell is not None:
                self.cell.decisions.append((counts, decision, self._greedy_x))
            return decision
        return controller_epoch

    def _greedy(self, fn):
        def greedy_solve(*args, **kwargs):
            idx = self._open("optimizer.greedy") if self.trace else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self._close(idx)
            self._greedy_x = result.placement.x
            if self.trace:
                self.count("optimizer.greedy_cost", result.cost)
            return result
        return greedy_solve

    def _swaps(self, result) -> None:
        self.count("optimizer.swaps", result.diagnostics["iterations"])
        self.count("optimizer.ls_cost", result.cost)

    def _request(self, fn):
        def handle_request(*args, **kwargs):
            self._requests += 1
            return fn(*args, **kwargs)
        return handle_request

    def _insert(self, fn):
        def insert(cache, obj, *args, **kwargs):
            had = obj in cache
            evicted = fn(cache, obj, *args, **kwargs)
            if not had and obj in cache:
                self.count("simnet.admitted")
            if evicted:
                self.count("simnet.evictions", len(evicted))
            return evicted
        return insert
