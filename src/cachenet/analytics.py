"""Control-layer analytics: demand estimation and the controller epoch.

Closes the loop between the switch telemetry and the placement solver:
per (node, object) request counts become an add-one demand estimate, the
solver runs on it, and the resulting placement is handed back to the
harness to install at the epoch boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .netmodel import DemandMatrix
from .optimizer import Instance, Placement, solve

__all__ = [
    "ControllerDecision",
    "estimate_demand",
    "controller_epoch",
]


@dataclass(eq=False)
class ControllerDecision:
    placement: Placement
    estimated_cost: float
    solver_diagnostics: dict = field(default_factory=dict)


def estimate_demand(telemetry_log) -> np.ndarray:
    """Per (node, object) request counts plus one (Laplace's add-one rule).

    rates_hat[i, k] = request_count[i, k] + 1, so the estimate sums to
    total_requests + n*m and an unrequested object keeps some demand.
    """
    return np.asarray(telemetry_log.request_count, dtype=float) + 1


def controller_epoch(telemetry_log, instance: Instance) -> ControllerDecision:
    """One control-loop turn: estimate demand, solve it on ``instance``'s
    topology, catalog and pool, emit a directive. ``simnet.apply_placement``
    checks the placement when it installs it."""
    estimate = replace(instance, demand=DemandMatrix(estimate_demand(telemetry_log)))
    result = solve(estimate)
    return ControllerDecision(result.placement, result.cost,
                              {**result.diagnostics, "sample_count": telemetry_log.total_requests})
