"""Customer metering simulation and feeder-level discrepancy detection.

Each customer meter draws a true consumption per interval and reports a
possibly tampered value. Every FRTU measures the aggregate energy leaving
its feeder head, which equals the true consumption of the nodes it covers
plus technical losses. A feeder alarms when the relative gap between the
FRTU aggregate and the sum of customer reports exceeds the threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .energize import energized_nodes, frtu_coverage
from .errors import UnknownFrtuError, UnknownNodeError, ZeroAggregateError
from .topology import Topology, load_topology, states_to_string

DEFAULT_THRESHOLD = 0.2


class TamperKind(Enum):
    SCALE = "scale"
    FIXED = "fixed"
    OUTAGE = "outage"


@dataclass(frozen=True)
class Tamper:
    kind: TamperKind
    value: float = 0.0

    def apply(self, true_kwh: float) -> float | None:
        """Reported value for a true draw; None models a silenced meter."""
        if self.kind is TamperKind.SCALE:
            return true_kwh * self.value
        if self.kind is TamperKind.FIXED:
            return self.value
        return None

    @staticmethod
    def from_dict(d: Mapping) -> "Tamper":
        return Tamper(kind=TamperKind(d["mode"]), value=float(d.get("value", 0.0)))


@dataclass(frozen=True)
class CustomerMeter:
    meter_id: str
    node: int
    base_load_kwh: float
    tamper: Tamper | None = None


@dataclass(frozen=True)
class MeterReading:
    meter_id: str
    node: int
    true_kwh: float
    reported_kwh: float | None


@dataclass(frozen=True)
class FrtuReading:
    frtu: str
    edge: int
    aggregate_kwh: float
    reported_sum_kwh: float
    covered_nodes: frozenset[int]


@dataclass(frozen=True)
class MeterInterval:
    index: int
    states: tuple[int, ...]
    readings: tuple[MeterReading, ...]
    frtu_readings: tuple[FrtuReading, ...]

    def frtu(self, name: str) -> FrtuReading:
        for fr in self.frtu_readings:
            if fr.frtu == name:
                return fr
        raise UnknownFrtuError(f"no FRTU named {name!r} in this interval")


def _draw_true_loads(
    meters: Sequence[CustomerMeter], seed: int, noise: float, index: int
) -> list[float]:
    # One generator per (seed, interval) and one draw per meter, in meter
    # order, so a meter's true load never depends on which meters alarm or
    # which switches moved.
    rng = np.random.default_rng([seed, index])
    draws = rng.uniform(1.0 - noise, 1.0 + noise, size=len(meters))
    return [m.base_load_kwh * d for m, d in zip(meters, draws)]


def simulate_interval(
    topo: Topology,
    states: np.ndarray,
    meters: Sequence[CustomerMeter],
    seed: int,
    *,
    noise: float = 0.0,
    loss_factor: float = 0.0,
    index: int = 0,
) -> MeterInterval:
    """Simulate one metering interval under the given switch states.

    A load consumes when closed switches connect it to a substation or a
    DG. Loads in a DG-backed island keep consuming (the microgrid supplies
    them) but fall out of every FRTU aggregate. Loads that are simply dark
    consume nothing. Tampering affects only the reported value.
    """
    states = topo.check_states(states)
    loads = topo.load_ids
    for m in meters:
        if m.node not in loads:
            topo.node(m.node)  # an id outside the network raises InvalidIdError
            raise UnknownNodeError(
                f"meter {m.meter_id} placed on non-load node {m.node}")

    powered = energized_nodes(
        topo, states, topo.source_vector() | topo.dg_vector()).tolist()
    trues = _draw_true_loads(meters, seed, noise, index)
    readings: list[MeterReading] = []
    for m, true_kwh in zip(meters, trues):
        if not powered[m.node - 1]:
            true_kwh = 0.0
        reported: float | None
        if m.tamper is None:
            reported = true_kwh
        else:
            reported = m.tamper.apply(true_kwh)
        readings.append(MeterReading(
            meter_id=m.meter_id, node=m.node,
            true_kwh=true_kwh, reported_kwh=reported))

    coverage = frtu_coverage(topo, states)
    # Coverages are disjoint, so one pass puts each reading in the bucket of
    # the FRTU that meters it; each bucket then sums in reading order.
    frtu_of = {node: frtu for frtu, covered in coverage.items() for node in covered}
    true_by: dict[str, list[float]] = {frtu: [] for frtu in coverage}
    reported_by: dict[str, list[float]] = {frtu: [] for frtu in coverage}
    for r in readings:
        frtu = frtu_of.get(r.node)
        if frtu is not None:
            true_by[frtu].append(r.true_kwh)
            if r.reported_kwh is not None:
                reported_by[frtu].append(r.reported_kwh)
    frtu_readings: list[FrtuReading] = []
    for frtu, covered in sorted(coverage.items()):
        frtu_readings.append(FrtuReading(
            frtu=frtu,
            edge=topo.frtu_edges[frtu],
            aggregate_kwh=sum(true_by[frtu]) * (1.0 + loss_factor),
            reported_sum_kwh=sum(reported_by[frtu]),
            covered_nodes=covered,
        ))
    return MeterInterval(
        index=index,
        states=tuple(int(s) for s in states),
        readings=tuple(readings),
        frtu_readings=tuple(frtu_readings),
    )


def feeder_discrepancy(interval: MeterInterval, frtu: str) -> float:
    """Relative gap between an FRTU aggregate and its customer reports.

    Zero aggregate with zero reports is a quiet feeder (gap 0); a nonzero
    report against a zero aggregate has no meaningful ratio and raises.
    """
    fr = interval.frtu(frtu)
    if fr.aggregate_kwh == 0.0:
        if fr.reported_sum_kwh == 0.0:
            return 0.0
        raise ZeroAggregateError(
            f"{frtu} aggregate is zero but customer reports sum to "
            f"{fr.reported_sum_kwh}")
    return abs(fr.aggregate_kwh - fr.reported_sum_kwh) / fr.aggregate_kwh


def detect(ratio: float, threshold: float = DEFAULT_THRESHOLD) -> bool:
    """Alarm rule: the gap must strictly exceed the threshold."""
    return ratio > threshold


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    meters: tuple[CustomerMeter, ...]
    seed: int
    noise: float = 0.0
    loss_factor: float = 0.0
    threshold: float = DEFAULT_THRESHOLD
    intervals: int = 1
    alarm_edge: int | None = None
    ground_truth: tuple[int, ...] = field(default_factory=tuple)


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario file; the topology path resolves against it."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    topo = load_topology(path.parent / raw["topology"])
    meters = tuple(
        CustomerMeter(
            meter_id=m["meter_id"],
            node=int(m["node"]),
            base_load_kwh=float(m["base_load_kwh"]),
            tamper=Tamper.from_dict(m["tamper"]) if m.get("tamper") else None,
        )
        for m in raw["meters"]
    )
    return Scenario(
        topology=topo,
        meters=meters,
        seed=int(raw["seed"]),
        noise=float(raw.get("noise", 0.0)),
        loss_factor=float(raw.get("loss_factor", 0.0)),
        threshold=float(raw.get("threshold", DEFAULT_THRESHOLD)),
        intervals=int(raw.get("intervals", 1)),
        alarm_edge=int(raw["alarm_edge"]) if raw.get("alarm_edge") is not None else None,
        ground_truth=tuple(int(n) for n in raw.get("ground_truth", ())),
    )


class SimulationOracle:
    """Answers 'does this FRTU alarm under these switch states?'.

    Wraps the interval simulator so the localization planner can consult
    live telemetry without knowing where the tampering sits. Results are
    cached per switch configuration; the planner's check accounting sits
    on top of this and is unaffected by cache hits.
    """

    def __init__(
        self,
        topo: Topology,
        meters: Sequence[CustomerMeter],
        seed: int,
        *,
        noise: float = 0.0,
        loss_factor: float = 0.0,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> None:
        self.topology = topo
        self.meters = tuple(meters)
        self.seed = seed
        self.noise = noise
        self.loss_factor = loss_factor
        self.threshold = threshold
        self._cache: dict[str, dict[str, bool]] = {}

    def alarms(self, states: np.ndarray) -> dict[str, bool]:
        key = states_to_string(self.topology.check_states(states))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        interval = simulate_interval(
            self.topology, states, self.meters, self.seed,
            noise=self.noise, loss_factor=self.loss_factor)
        result = {
            fr.frtu: detect(feeder_discrepancy(interval, fr.frtu), self.threshold)
            for fr in interval.frtu_readings
        }
        self._cache[key] = result
        return result

    def __call__(self, states: np.ndarray) -> dict[str, bool]:
        return self.alarms(states)
