"""Tampered-meter localization for radial distribution networks.

The package models a switchable distribution network, simulates customer
metering with injectable tampering, detects feeder-level discrepancies
between FRTU aggregates and customer-reported sums, localizes the source
of a discrepancy by reconfiguring switches, and ranks the customers inside
the localized area by anomaly score.
"""

from .energize import (
    energized_from_incidence,
    energized_nodes,
    frtu_coverage,
    suspect_nodes,
)
from .errors import (
    GridSleuthError,
    InfeasibleIsolationError,
    InfeasiblePlanError,
    OracleInconsistentError,
    TopologyError,
)
from .metering import (
    CustomerMeter,
    Scenario,
    SimulationOracle,
    Tamper,
    TamperKind,
    detect,
    feeder_discrepancy,
    frtu_alarms,
    load_scenario,
    simulate_interval,
    simulate_intervals,
)
from .planner import LocalizationReport, localize
from .scoring import MeterScore, rank_meters, score_window
from .topology import (
    Edge,
    EdgeKind,
    Node,
    NodeKind,
    Topology,
    adjacency_from_incidence,
    build_topology,
    incidence_matrix,
    load_topology,
    validate_operating_state,
)

__version__ = "0.1.0"

__all__ = [
    "CustomerMeter",
    "Edge",
    "EdgeKind",
    "GridSleuthError",
    "InfeasibleIsolationError",
    "InfeasiblePlanError",
    "LocalizationReport",
    "MeterScore",
    "Node",
    "NodeKind",
    "OracleInconsistentError",
    "Scenario",
    "SimulationOracle",
    "Tamper",
    "TamperKind",
    "Topology",
    "TopologyError",
    "adjacency_from_incidence",
    "build_topology",
    "detect",
    "energized_from_incidence",
    "energized_nodes",
    "feeder_discrepancy",
    "frtu_alarms",
    "frtu_coverage",
    "incidence_matrix",
    "load_scenario",
    "load_topology",
    "localize",
    "rank_meters",
    "score_window",
    "simulate_interval",
    "simulate_intervals",
    "suspect_nodes",
    "validate_operating_state",
    "__version__",
]
