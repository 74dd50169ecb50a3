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
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .energize import energized_nodes, frtu_coverage
from .errors import UnknownFrtuError, UnknownNodeError, ZeroAggregateError
from .topology import Topology, enum_field, field_error, int_field, item_name, load_topology

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
    def from_dict(d: Mapping, owner: str = "tamper") -> "Tamper":
        """Read a tamper. A ``d`` that is not an object or has no mode, an
        unknown mode, or a negative or non-finite value (a meter never
        reports negative energy) raises ``ValueError`` naming ``owner``."""
        if not (isinstance(d, Mapping) and "mode" in d):
            raise field_error(d, owner, "mode")
        return Tamper(kind=enum_field(f"{owner} mode", TamperKind, d["mode"]),
                      value=_in_range(f"{owner} value", d.get("value", 0.0)))


@dataclass(frozen=True)
class CustomerMeter:
    meter_id: str
    node: int
    base_load_kwh: float
    tamper: Tamper | None = None


@dataclass(frozen=True, eq=False)
class MeterInterval:
    """One simulated interval: per-meter columns in meter order, and each
    FRTU's aggregate and reported sum in ``frtus`` order (sorted by name).

    ``reported_kwh`` holds nothing meaningful where ``silenced`` is set.
    ``frtu_index`` gives each meter's position in ``frtus``, or -1 where no
    FRTU meters its node (a dark load or a DG island).
    """

    index: int
    true_kwh: np.ndarray
    reported_kwh: np.ndarray
    silenced: np.ndarray
    frtu_index: np.ndarray
    frtus: tuple[str, ...]
    aggregate_kwh: list[float]
    reported_sum_kwh: list[float]


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

    groups = _FrtuGroups(frtu_coverage(topo, states), topo.n_nodes, nodes, silenced)
    frtu_index = groups.bins - 1
    # Every interval shares these columns, so none may be written to.
    for column in (silenced, frtu_index):
        column.flags.writeable = False

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
            true_kwh=true_kwh,
            reported_kwh=reported,
            silenced=silenced,
            frtu_index=frtu_index,
            frtus=groups.names,
            aggregate_kwh=aggregate,
            reported_sum_kwh=reported_sum,
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

    ``names`` holds the FRTUs in sorted order. ``bins`` gives each meter's
    bin: 1 plus its FRTU's position in ``names``, or 0 where no FRTU meters
    its node (a dark load or a DG island). Bin 0 also takes the silenced
    meters' reports, and no sum reads it.
    """

    def __init__(self, coverage: Mapping[str, frozenset[int]], n_nodes: int,
                 nodes: np.ndarray, silenced: np.ndarray) -> None:
        self.names = names = tuple(sorted(coverage))
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
    if frtu not in interval.frtus:
        raise UnknownFrtuError(f"no FRTU named {frtu!r} in this interval")
    i = interval.frtus.index(frtu)
    return _relative_gap(frtu, interval.aggregate_kwh[i], interval.reported_sum_kwh[i])


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


def frtu_alarms(frtus: Iterable[str], aggregate: Iterable[float],
                reported_sum: Iterable[float], threshold: float) -> dict[str, bool]:
    """The alarm rule, ``detect`` of ``feeder_discrepancy``'s gap, on each
    FRTU's two sums; it raises where that gap does."""
    return {frtu: detect(_relative_gap(frtu, agg, rep), threshold)
            for frtu, agg, rep in zip(frtus, aggregate, reported_sum)}


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
    """``value`` as a float, which must be finite and within [0, high].

    A boolean raises rather than reading as 0 or 1.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a finite number in [0, {high}], got {value!r}")
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
    numbers with a fractional part; each ``meter_id`` must be a non-empty
    string that no other meter uses; and the ground truth must list loads
    of the topology, each once. A document, meter or tamper that is not a
    JSON object, or lacks a required field, raises ``ValueError`` naming it.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        topology, items, seed = raw["topology"], raw["meters"], raw["seed"]
    except (KeyError, TypeError) as exc:
        raise field_error(raw, f"scenario {path}", exc.args[0]) from None
    topo = load_topology(path.parent / topology)
    meters: list[CustomerMeter] = []
    seen: set[str] = set()
    for pos, m in enumerate(items, start=1):
        try:
            meter_id, node, base_load_kwh = m["meter_id"], m["node"], m["base_load_kwh"]
        except (KeyError, TypeError) as exc:
            raise field_error(m, item_name("meter", pos, m, "meter_id"), exc.args[0]) from None
        # The history names a meter by its id as text: 5 and "5" would be one.
        if not (isinstance(meter_id, str) and meter_id):
            raise ValueError(f"meter_id must be a non-empty string, got {meter_id!r}")
        if meter_id in seen:
            raise ValueError(f"meter_id {meter_id!r} is used by more than one meter")
        seen.add(meter_id)
        tamper = m.get("tamper")
        meters.append(CustomerMeter(
            meter_id=meter_id,
            node=int_field(f"meter {meter_id} node", node),
            base_load_kwh=_in_range(f"meter {meter_id} base_load_kwh", base_load_kwh),
            tamper=Tamper.from_dict(tamper, f"meter {meter_id} tamper") if tamper else None,
        ))
    truth = tuple(int_field("ground_truth", n) for n in raw.get("ground_truth", ()))
    for node in truth:
        if node not in topo.load_ids:
            raise ValueError(f"ground_truth node {node} is not a load of the topology")
        if truth.count(node) > 1:
            raise ValueError(f"ground_truth lists node {node} more than once")
    return Scenario(
        topology=topo,
        meters=tuple(meters),
        seed=seed_field("seed", seed),
        noise=_in_range("noise", raw.get("noise", 0.0), 1.0),
        loss_factor=_in_range("loss_factor", raw.get("loss_factor", 0.0)),
        threshold=_in_range("threshold", raw.get("threshold", DEFAULT_THRESHOLD)),
        intervals=int_field("intervals", raw.get("intervals", 1)),
        alarm_edge=(int_field("alarm_edge", raw["alarm_edge"])
                    if raw.get("alarm_edge") is not None else None),
        ground_truth=truth,
    )


class SimulationOracle:
    """Answers 'does this FRTU alarm under these switch states?'.

    Wraps the interval simulator so the localization planner can consult
    live telemetry without knowing where the tampering sits. Each call
    answers for every FRTU at once; the planner asks once per switch state
    and keeps the reply, so nothing is cached here.

    Every read is of interval 0, simulated once, at the normal state, on
    the first read. That state feeds every load (``build_topology``
    refuses a network where it does not), and a meter's draw never depends
    on the switches, so the interval holds each meter's true and reported
    kWh under any state where its node is covered: a covered node hangs
    below a breaker in the fed component. Each read only regroups those
    columns by its state's FRTU coverage, whose sums equal a simulation at
    that state bit for bit, and answers ``frtu_alarms`` of them.

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

    def __call__(self, states: np.ndarray) -> dict[str, bool]:
        topo = self.topology
        states = topo.check_states(states)
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
        return frtu_alarms(groups.names, aggregate, reported_sum, self.threshold)
