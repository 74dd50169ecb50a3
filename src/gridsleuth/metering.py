"""Customer metering simulation and feeder-level discrepancy detection.

Each customer meter draws a true consumption per interval and reports a
possibly tampered value. Every FRTU measures the aggregate energy leaving
its feeder head, which equals the true consumption of the nodes it covers
plus technical losses. A feeder alarms when the relative gap between the
FRTU aggregate and the sum of customer reports exceeds the threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .energize import energized_nodes, frtu_coverage
from .errors import UnknownFrtuError, UnknownNodeError, ZeroAggregateError
from .topology import Topology, int_field, load_topology

DEFAULT_THRESHOLD = 0.2


class TamperKind(Enum):
    SCALE = "scale"
    FIXED = "fixed"
    OUTAGE = "outage"


@dataclass(frozen=True)
class Tamper:
    """A meter's misreporting: SCALE reports ``value`` times the true draw,
    FIXED reports ``value`` whatever the draw, OUTAGE reports nothing."""

    kind: TamperKind
    value: float = 0.0

    @staticmethod
    def from_dict(d: Mapping, name: str = "tamper value") -> "Tamper":
        """Read a tamper; a negative or non-finite value raises ``ValueError``
        naming it as ``name``, since a meter never reports negative energy."""
        return Tamper(kind=TamperKind(d["mode"]), value=_in_range(name, d.get("value", 0.0)))


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


@dataclass(frozen=True, eq=False)
class MeterInterval:
    """One simulated interval, held as per-meter columns in meter order.

    ``reported_kwh`` holds nothing meaningful where ``silenced`` is set.
    ``frtu_index`` gives each meter's position in ``frtu_readings``, or -1
    where no FRTU meters its node (a dark load or a DG island).
    """

    index: int
    states: tuple[int, ...]
    meters: tuple[CustomerMeter, ...]
    true_kwh: np.ndarray
    reported_kwh: np.ndarray
    silenced: np.ndarray
    frtu_index: np.ndarray
    frtu_readings: tuple[FrtuReading, ...]

    @cached_property
    def readings(self) -> tuple[MeterReading, ...]:
        """The columns as one ``MeterReading`` per meter, built on first use."""
        return tuple(
            MeterReading(meter_id=m.meter_id, node=m.node, true_kwh=true_kwh,
                         reported_kwh=None if silenced else reported)
            for m, true_kwh, reported, silenced in zip(
                self.meters, self.true_kwh.tolist(), self.reported_kwh.tolist(),
                self.silenced.tolist()))

    def frtu(self, name: str) -> FrtuReading:
        for fr in self.frtu_readings:
            if fr.frtu == name:
                return fr
        raise UnknownFrtuError(f"no FRTU named {name!r} in this interval")


def simulate_intervals(
    topo: Topology,
    states: np.ndarray,
    meters: Sequence[CustomerMeter],
    seed: int,
    indices: Iterable[int],
    *,
    noise: float = 0.0,
    loss_factor: float = 0.0,
) -> Iterator[MeterInterval]:
    """Simulate the metering intervals ``indices`` under one switch state.

    A load consumes when closed switches connect it to a substation or a
    DG. Loads in a DG-backed island keep consuming (the microgrid supplies
    them) but fall out of every FRTU aggregate. Loads that are simply dark
    consume nothing. Tampering affects only the reported value.

    The seed must be a non-negative integer, ``noise`` lie in [0, 1] and
    ``loss_factor`` be finite and nonnegative, as in ``load_scenario``;
    each raises ``ValueError`` naming it. The state and the meters are
    checked, and everything that depends only on them (energization,
    coverage, each meter's FRTU, base loads and tamper masks) is computed,
    before this returns; the iterator then draws, masks and sums one
    interval per index, in the order given.
    """
    seed = seed_field("seed", seed)
    noise = _in_range("noise", noise, 1.0)
    loss_factor = _in_range("loss_factor", loss_factor)
    states = topo.check_states(states)
    meters = tuple(meters)
    nodes = _meter_nodes(topo, meters)

    powered = energized_nodes(
        topo, states, topo.source_vector() | topo.dg_vector())[nodes - 1] != 0
    base = np.array([m.base_load_kwh for m in meters], dtype=float)
    is_kind = {kind: np.zeros(len(meters), dtype=bool) for kind in TamperKind}
    value = np.zeros(len(meters))
    for i, m in enumerate(meters):
        if m.tamper is not None:
            is_kind[m.tamper.kind][i] = True
            value[i] = m.tamper.value
    fixed, scale = is_kind[TamperKind.FIXED], is_kind[TamperKind.SCALE]
    silenced = is_kind[TamperKind.OUTAGE]

    coverage = frtu_coverage(topo, states)
    groups = _FrtuGroups(coverage, topo.n_nodes, nodes, silenced)
    frtu_index = groups.bins - 1
    # Every interval shares these columns, so none may be written to.
    for column in (silenced, frtu_index):
        column.flags.writeable = False
    state = tuple(states.tolist())

    def interval(index: int) -> MeterInterval:
        # One generator per (seed, interval) and one draw per meter, in
        # meter order, so a meter's true load never depends on which meters
        # alarm or which switches moved.
        draws = np.random.default_rng([seed, index]).uniform(
            1.0 - noise, 1.0 + noise, size=len(meters))
        true_kwh = np.where(powered, base * draws, 0.0)
        reported = np.where(fixed, value, true_kwh)
        np.multiply(true_kwh, value, out=reported, where=scale)
        aggregate, reported_sum = groups.sums(true_kwh, reported, loss_factor)
        return MeterInterval(
            index=index,
            states=state,
            meters=meters,
            true_kwh=true_kwh,
            reported_kwh=reported,
            silenced=silenced,
            frtu_index=frtu_index,
            frtu_readings=tuple(
                FrtuReading(frtu=frtu, edge=topo.frtu_edges[frtu], aggregate_kwh=agg,
                            reported_sum_kwh=rep, covered_nodes=coverage[frtu])
                for frtu, agg, rep in zip(groups.names, aggregate, reported_sum)),
        )

    return map(interval, indices)


def _meter_nodes(topo: Topology, meters: Sequence[CustomerMeter]) -> np.ndarray:
    """Each meter's node id; a meter off the loads raises ``InvalidIdError``
    (outside the network) or ``UnknownNodeError``."""
    node_ids = [m.node for m in meters]
    loads = topo.load_ids
    if not loads.issuperset(node_ids):
        m = next(m for m in meters if m.node not in loads)
        topo.node(m.node)  # an id outside the network raises InvalidIdError
        raise UnknownNodeError(f"meter {m.meter_id} placed on non-load node {m.node}")
    return np.array(node_ids, dtype=np.intp)


class _FrtuGroups:
    """Meters grouped by the FRTU that meters their node under one state.

    ``names`` lists the FRTUs in sorted order. ``bins`` gives each meter's
    bin: 1 plus its FRTU's position in ``names``, or 0 where no FRTU meters
    its node (a dark load or a DG island). Bin 0 also takes the silenced
    meters' reports, and no sum reads it.
    """

    def __init__(self, coverage: Mapping[str, frozenset[int]], n_nodes: int,
                 nodes: np.ndarray, silenced: np.ndarray) -> None:
        self.names = names = sorted(coverage)
        sizes = [len(coverage[frtu]) for frtu in names]
        covered = np.fromiter(chain.from_iterable(coverage[frtu] for frtu in names),
                              dtype=np.intp, count=sum(sizes))
        node_bin = np.zeros(n_nodes + 1, dtype=np.intp)
        node_bin[covered] = np.repeat(np.arange(1, len(names) + 1), sizes)
        self.bins = node_bin[nodes]
        self._sent = np.where(silenced, 0, self.bins)

    def sums(self, true_kwh: np.ndarray, reported: np.ndarray,
             loss_factor: float) -> tuple[list[float], list[float]]:
        """Each FRTU's aggregate (true kWh plus losses) and reported total.

        Coverages are disjoint, and bincount adds each bin's weights one by
        one in meter order, so its sums are left-to-right sums over readings.
        """
        n = len(self.names) + 1
        aggregate = np.bincount(
            self.bins, weights=true_kwh, minlength=n)[1:] * (1.0 + loss_factor)
        reported_sum = np.bincount(self._sent, weights=reported, minlength=n)[1:]
        return aggregate.tolist(), reported_sum.tolist()


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
    """Simulate the one metering interval ``index``; see ``simulate_intervals``."""
    return next(simulate_intervals(
        topo, states, meters, seed, (index,), noise=noise, loss_factor=loss_factor))


def feeder_discrepancy(interval: MeterInterval, frtu: str) -> float:
    """Relative gap between an FRTU aggregate and its customer reports.

    Zero aggregate with zero reports is a quiet feeder (gap 0); a nonzero
    report against a zero aggregate has no meaningful ratio and raises.
    """
    fr = interval.frtu(frtu)
    return _relative_gap(frtu, fr.aggregate_kwh, fr.reported_sum_kwh)


def _relative_gap(frtu: str, aggregate: float, reported_sum: float) -> float:
    """``feeder_discrepancy``'s rule on one FRTU's two sums."""
    if aggregate == 0.0:
        if reported_sum == 0.0:
            return 0.0
        raise ZeroAggregateError(
            f"{frtu} aggregate is zero but customer reports sum to {reported_sum}")
    return abs(aggregate - reported_sum) / aggregate


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


def _in_range(name: str, value, high: float = math.inf) -> float:
    """``value`` as a float, which must be finite and within [0, high]."""
    x = float(value)
    if not (math.isfinite(x) and 0.0 <= x <= high):
        raise ValueError(f"{name} must be a finite number in [0, {high}], got {x}")
    return x


def seed_field(name: str, value) -> int:
    """``value`` as a random seed: an integer (see ``int_field``) of at least 0."""
    seed = int_field(name, value)
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return seed


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario file; the topology path resolves against it.

    Noise must lie in [0, 1]; losses, the threshold and base loads must be
    nonnegative, and so must tamper values and the seed; every number must
    be finite (``json`` reads ``NaN``); the seed, interval count, alarm
    edge, ground truth and meter nodes must be integers, not booleans or
    numbers with a fractional part; and no two meters may share a
    ``meter_id``.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    topo = load_topology(path.parent / raw["topology"])
    meters = tuple(
        CustomerMeter(
            meter_id=m["meter_id"],
            node=int_field(f"meter {m['meter_id']} node", m["node"]),
            base_load_kwh=_in_range(
                f"meter {m['meter_id']} base_load_kwh", m["base_load_kwh"]),
            tamper=(Tamper.from_dict(m["tamper"], f"meter {m['meter_id']} tamper value")
                    if m.get("tamper") else None),
        )
        for m in raw["meters"]
    )
    seen: set[str] = set()
    for meter in meters:
        if meter.meter_id in seen:
            raise ValueError(f"meter_id {meter.meter_id!r} is used by more than one meter")
        seen.add(meter.meter_id)
    return Scenario(
        topology=topo,
        meters=meters,
        seed=seed_field("seed", raw["seed"]),
        noise=_in_range("noise", raw.get("noise", 0.0), 1.0),
        loss_factor=_in_range("loss_factor", raw.get("loss_factor", 0.0)),
        threshold=_in_range("threshold", raw.get("threshold", DEFAULT_THRESHOLD)),
        intervals=int_field("intervals", raw.get("intervals", 1)),
        alarm_edge=(int_field("alarm_edge", raw["alarm_edge"])
                    if raw.get("alarm_edge") is not None else None),
        ground_truth=tuple(int_field("ground_truth", n) for n in raw.get("ground_truth", ())),
    )


class SimulationOracle:
    """Answers 'does this FRTU alarm under these switch states?'.

    Wraps the interval simulator so the localization planner can consult
    live telemetry without knowing where the tampering sits. Results are
    cached per switch configuration; the planner's check accounting sits
    on top of this and is unaffected by cache hits.

    Every read is of interval 0, simulated once, at the normal state, on
    the first read that is not cached. That state feeds every load
    (``build_topology`` refuses a network where it does not), and a meter's
    draw never depends on the switches, so the interval holds each meter's
    true and reported kWh under any state where its node is covered: a
    covered node hangs below a breaker in the fed component. A read at a
    new state only regroups those columns by that state's FRTU coverage,
    and its sums equal a simulation at that state bit for bit.

    The parameters are checked as ``load_scenario`` checks them: the seed
    is a non-negative integer, ``noise`` lies in [0, 1], and
    ``loss_factor`` and ``threshold`` are finite and nonnegative; each
    raises ``ValueError`` naming it. Misplaced meters raise on the first
    read, as ``simulate_interval`` would.
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
        self.seed = seed_field("seed", seed)
        self.noise = _in_range("noise", noise, 1.0)
        self.loss_factor = _in_range("loss_factor", loss_factor)
        self.threshold = _in_range("threshold", threshold)
        self._interval: MeterInterval | None = None
        self._nodes: np.ndarray | None = None
        self._cache: dict[bytes, dict[str, bool]] = {}

    def alarms(self, states: np.ndarray) -> dict[str, bool]:
        topo = self.topology
        states = topo.check_states(states)
        key = states.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self._interval is None:
            self._interval = simulate_interval(
                topo, topo.normal_states(), self.meters, self.seed,
                noise=self.noise, loss_factor=self.loss_factor)
            self._nodes = _meter_nodes(topo, self.meters)
        interval = self._interval
        groups = _FrtuGroups(topo.tree(states).coverage, topo.n_nodes, self._nodes,
                             interval.silenced)
        aggregate, reported_sum = groups.sums(
            interval.true_kwh, interval.reported_kwh, self.loss_factor)
        result = {
            frtu: detect(_relative_gap(frtu, agg, rep), self.threshold)
            for frtu, agg, rep in zip(groups.names, aggregate, reported_sum)
        }
        self._cache[key] = result
        return result

    def __call__(self, states: np.ndarray) -> dict[str, bool]:
        return self.alarms(states)
