"""Content-centric network cache simulator and placement optimizer."""

from .netmodel import (
    Catalog,
    DemandMatrix,
    Topology,
    all_pairs_hops,
    build_demand,
    generate_power_law_topology,
    zipf_popularity,
)
from .optimizer import (
    ORIGIN,
    Instance,
    Placement,
    SolveResult,
    average_hops,
    check_feasibility,
    evaluate_objective,
    exact_solve,
    greedy_solve,
    local_search,
    nearest_copy,
    solve,
)
from .simnet import (
    MetricsReport,
    Scheme,
    SimConfig,
    run_simulation,
)
from .analytics import ControllerDecision, controller_epoch, estimate_demand

__version__ = "0.1.0"
