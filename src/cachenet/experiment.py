"""Experiment sweeps: run a grid of (sweep value, scheme, seed) simulations
and emit per-run and summary CSVs.

A sweep spec is a flat JSON object; ``sweep`` names the swept field
(``cache_fraction`` or ``alpha``), ``values`` its grid, and the remaining
keys fill in the fixed simulation parameters: any ``SimConfig`` field other
than ``scheme``, ``seed`` and the swept one, defaulting as in ``SimConfig``.
The recipes below take the same keys and are validated like a file.
"""

from __future__ import annotations

import csv
import json
import numbers
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .simnet import Scheme, SimConfig, brief, is_number, run_simulation

__all__ = [
    "ExperimentSpec",
    "ConfigError",
    "load_spec",
    "validate_spec",
    "run_experiment",
    "summarize_rows",
    "cache_size_sweep_spec",
    "alpha_sweep_spec",
    "demo_spec",
]

PER_RUN_HEADER = ["sweep_value", "scheme", "seed", "avg_hops", "hit_ratio", "total_requests"]
SUMMARY_HEADER = ["sweep_value", "scheme", "avg_hops_mean", "avg_hops_std", "hit_ratio_mean", "runs"]

SWEEPABLE = ("cache_fraction", "alpha")


class ConfigError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        super().__init__("; ".join(diagnostics))


@dataclass
class ExperimentSpec:
    sweep: str
    values: list = field(default_factory=list)
    schemes: list = field(default_factory=lambda: list(Scheme))
    seeds: list = field(default_factory=lambda: [0])
    output: str = "results"
    fixed: dict = field(default_factory=dict)  # SimConfig fields held constant

    def config(self, value: float, scheme: Scheme, seed: int) -> SimConfig:
        """The simulation of one sweep cell."""
        return SimConfig(scheme=scheme, seed=seed, **{**self.fixed, self.sweep: value})


AXES = tuple(f.name for f in fields(ExperimentSpec) if f.name != "fixed")
FIXED_FIELDS = tuple(f.name for f in fields(SimConfig) if f.name not in ("scheme", "seed"))


def load_spec(path) -> ExperimentSpec:
    """Parse and validate a JSON sweep spec; raises ConfigError with
    field-level diagnostics on any problem."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}"]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"]) from exc
    except ValueError as exc:  # json's one other ValueError: an integer past Python's str() digit limit
        raise ConfigError([f"{path}: an integer has more than {sys.get_int_max_str_digits()} digits"]) from exc
    except RecursionError as exc:
        raise ConfigError([f"{path}: arrays or objects nested too deeply to parse"]) from exc
    return spec_from_dict(raw)


def spec_from_dict(raw: dict) -> ExperimentSpec:
    """Validated spec from a flat dict of the JSON keys: the axes in ``AXES``
    and the fixed ``SimConfig`` fields in ``FIXED_FIELDS``."""
    if not isinstance(raw, dict):
        raise ConfigError([f"spec must be a JSON object, got {type(raw).__name__}"])
    diagnostics = [f"unknown field: {k}" for k in raw if k not in AXES and k not in FIXED_FIELDS]
    if "sweep" not in raw:
        diagnostics.append("missing field: sweep")
    if diagnostics:
        raise ConfigError(diagnostics)
    axes = {k: v for k, v in raw.items() if k in AXES}
    if isinstance(axes["sweep"], str):
        axes["sweep"] = axes["sweep"].lower()
    spec = ExperimentSpec(**axes, fixed={k: v for k, v in raw.items() if k in FIXED_FIELDS})
    diagnostics = validate_spec(spec)
    if diagnostics:
        raise ConfigError(diagnostics)
    spec.schemes = [Scheme(s) for s in spec.schemes]
    return spec


def validate_spec(spec: ExperimentSpec) -> list:
    """Full invariant check without running; returns diagnostics, empty if ok."""
    diags = []
    if spec.sweep not in SWEEPABLE:
        diags.append(f"sweep: must be one of {SWEEPABLE}, got {brief(spec.sweep)}")
    elif spec.sweep in spec.fixed:
        diags.append(f"{spec.sweep}: is the swept field; list its grid in values")
    if not isinstance(spec.values, list) or not all(is_number(v, numbers.Real) for v in spec.values):
        diags.append(f"values: must be a list of numbers, got {brief(spec.values)}")
    elif not spec.values:
        diags.append("values: must be nonempty")
    elif any(b <= a for a, b in zip(spec.values, spec.values[1:])):
        diags.append("values: must be strictly increasing")
    if not isinstance(spec.seeds, list) or not all(is_number(s, numbers.Integral) for s in spec.seeds):
        diags.append(f"seeds: must be a list of integers, got {brief(spec.seeds)}")
    elif not spec.seeds:
        diags.append("seeds: must be nonempty")
    elif min(spec.seeds) < 0:
        diags.append(f"seeds: must be nonnegative, got {min(spec.seeds)}")
    elif len(set(spec.seeds)) != len(spec.seeds):
        diags.append("seeds: must be distinct")
    if not isinstance(spec.schemes, list) or not spec.schemes:
        diags.append(f"schemes: must be a nonempty list, got {brief(spec.schemes)}")
    else:
        known, unknown = [], []
        for s in spec.schemes:
            try:
                known.append(Scheme(s))
            except ValueError:
                unknown.append(s)
        if unknown:
            more = f" and {len(unknown) - 1} more" if len(unknown) > 1 else ""
            diags.append(f"schemes: unknown scheme {brief(unknown[0])}{more}")
        if len(set(known)) != len(known):
            diags.append("schemes: must be distinct")
    if not isinstance(spec.output, str):
        diags.append(f"output: must be a path, got {brief(spec.output)}")
    if diags:
        return diags
    # dry-build one config per (value, scheme) to surface SimConfig invariants,
    # each distinct problem once, at the first cell it arises in
    cells = {}
    for value in spec.values:
        for scheme in map(Scheme, spec.schemes):
            try:
                spec.config(value, scheme, spec.seeds[0])
            except ValueError as exc:
                cells.setdefault(str(exc), []).append(f"{spec.sweep}={brief(value)}, scheme={scheme.value}")
    for problem, where in cells.items():
        more = f" and {len(where) - 1} more" if len(where) > 1 else ""
        diags.append(f"{where[0]}{more}: {problem}")
    return diags


def _run_cell(cell):
    value, config = cell
    report = run_simulation(config)
    return [value, config.scheme.value, config.seed, report.avg_hops, report.hit_ratio, report.total_requests]


def summarize_rows(rows: list) -> list:
    """Aggregate per-run rows into (value, scheme) means and sample stddev."""
    groups = {}
    for value, scheme, _seed, avg_hops, hit_ratio, _total in rows:
        groups.setdefault((value, scheme), []).append((float(avg_hops), float(hit_ratio)))
    summary = []
    for (value, scheme) in sorted(groups, key=lambda g: (g[0], g[1])):
        data = groups[(value, scheme)]
        hops = [h for h, _ in data]
        hit = [r for _, r in data]
        std = float(np.std(hops, ddof=1)) if len(hops) > 1 else 0.0
        summary.append([value, scheme, float(np.mean(hops)), std, float(np.mean(hit)), len(data)])
    return summary


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> tuple:
    """Run the full grid into ``spec.output``; returns (per_run_csv_path, summary_csv_path).

    Output ordering is canonical (sweep value, scheme name, seed) regardless
    of execution order, so reruns are byte-identical.
    """
    os.makedirs(spec.output, exist_ok=True)
    # seed-major, so a seed's cells run back to back and share one topology build
    cells = [(value, spec.config(value, s, seed))
             for seed in spec.seeds
             for value in spec.values
             for s in spec.schemes]
    workers = min(jobs, len(cells))  # a worker past one per cell would be forked only to sit idle
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, cells))
    else:
        rows = [_run_cell(cell) for cell in cells]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    per_run_path = os.path.join(spec.output, "per_run.csv")
    summary_path = os.path.join(spec.output, "summary.csv")
    _write_csv(per_run_path, PER_RUN_HEADER, rows)
    _write_csv(summary_path, SUMMARY_HEADER, summarize_rows(rows))
    return per_run_path, summary_path


def cache_size_sweep_spec(**overrides) -> ExperimentSpec:
    """Cache-size sweep of every scheme: average response hops vs cache
    fraction 1%..10%. Overrides take the spec keys and win over these."""
    return spec_from_dict({
        "sweep": "cache_fraction",
        "values": [round(0.01 * i, 2) for i in range(1, 11)],
        "seeds": list(range(10)),
        **overrides,
    })


def alpha_sweep_spec(**overrides) -> ExperimentSpec:
    """Popularity sweep at the default 5% cache: the popularity-aware schemes only,
    since the static schemes' hops are flat in the skew."""
    return spec_from_dict({
        "sweep": "alpha",
        "values": [0.4, 0.6, 0.8, 1.0, 1.2],
        "schemes": ["OPTIMIZED", "LCE_LRU", "LCE_LFU"],
        "seeds": list(range(10)),
        **overrides,
    })


def demo_spec(**overrides) -> ExperimentSpec:
    """Tiny cache-size sweep that finishes in well under a minute."""
    return spec_from_dict({
        "sweep": "cache_fraction",
        "values": [0.05, 0.10],
        "schemes": ["OPTIMIZED", "LCE_LRU", "NO_CACHE"],
        "seeds": [0, 1],
        "nodes": 16, "objects": 40, "requests_per_epoch": 1000, "epochs": 4, "warmup_epochs": 1,
        "output": "demo_results",
        **overrides,
    })
