"""Control-layer analytics: demand estimation and the controller epoch.

Closes the loop between the switch telemetry and the placement solver:
per (node, object) request counts become a smoothed demand estimate, the
solver runs on it, and the resulting placement is handed back to the
harness to install at the epoch boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netmodel import Catalog, DemandMatrix, Topology
from .optimizer import Instance, Placement, solve

__all__ = [
    "ControllerDecision",
    "EmptyTelemetryError",
    "estimate_demand",
    "controller_epoch",
]


class EmptyTelemetryError(ValueError):
    """No observations and no smoothing: the estimate would be all-zero."""


@dataclass(eq=False)
class ControllerDecision:
    placement: Placement
    estimated_cost: float
    solver_diagnostics: dict = field(default_factory=dict)


def estimate_demand(telemetry_log, smoothing: float) -> np.ndarray:
    """Additive-smoothed per (node, object) request counts.

    rates_hat[i, k] = request_count[i, k] + smoothing, so the estimate sums
    to total_requests + n*m*smoothing.
    """
    if smoothing < 0:
        raise ValueError("smoothing must be nonnegative")
    if smoothing == 0 and telemetry_log.total_requests == 0:
        raise EmptyTelemetryError("empty telemetry with zero smoothing")
    return np.asarray(telemetry_log.request_count, dtype=float) + smoothing


def controller_epoch(telemetry_log, topology: Topology, catalog: Catalog,
                     c_sum: float, smoothing: float) -> ControllerDecision:
    """One control-loop turn: estimate demand, solve, emit a directive.
    ``simnet.apply_placement`` checks the placement when it installs it."""
    instance = Instance(topology, catalog, DemandMatrix(estimate_demand(telemetry_log, smoothing)), c_sum)
    result = solve(instance)
    return ControllerDecision(result.placement, result.cost,
                              {**result.diagnostics, "sample_count": telemetry_log.total_requests})
