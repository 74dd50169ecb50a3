"""Customer-level anomaly scoring and ranking.

Once localization has pinned the node, the meters on it are ranked by how
anomalous their reported history looks: the fraction of anomalous readings
in the window, combined with the probability that at least one alarm type
fired. The rank index multiplies the two so a meter must both misreport
often and trip alarms to float to the top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Iterable, Mapping, Sequence

from .errors import (
    CountOutOfRangeError,
    EmptyHistoryError,
    MeterNotOnNodeError,
    ProbabilityOutOfRangeError,
)

DEFAULT_DEVIATION_THRESHOLD = 0.3


@dataclass(frozen=True)
class AnomalyScore:
    value: float
    n_anomalous: int
    n_total: int


@dataclass(frozen=True)
class AlarmProbability:
    value: float
    components: tuple[float, ...]


@dataclass(frozen=True)
class ConsumptionProfile:
    meter_id: str
    historical_kwh: tuple[float, ...]
    current_kwh: tuple[float, ...]


def anomaly_score(n_anomalous: int, n_total: int) -> AnomalyScore:
    """Fraction of the window's readings that were anomalous.

    A meter with no readings carries no evidence and scores 0.
    """
    if n_anomalous < 0 or n_total < 0:
        raise CountOutOfRangeError(
            f"reading counts must be nonnegative, got ({n_anomalous}, {n_total})")
    if n_anomalous > n_total:
        raise CountOutOfRangeError(
            f"anomalous count {n_anomalous} exceeds total {n_total}")
    value = 0.0 if n_total == 0 else n_anomalous / n_total
    return AnomalyScore(value=value, n_anomalous=n_anomalous, n_total=n_total)


def alarm_probability(qs: Iterable[float]) -> AlarmProbability:
    """Probability that at least one alarm type fires.

    Alarm types are treated as independent, so the complement is the
    product of the per-type complements. An empty list gives 0.
    """
    components = tuple(float(q) for q in qs)
    for q in components:
        if not 0.0 <= q <= 1.0:
            raise ProbabilityOutOfRangeError(f"alarm probability {q} outside [0,1]")
    complement = math.prod(1.0 - q for q in components)
    return AlarmProbability(value=1.0 - complement, components=components)


def flag_profile(
    profile: ConsumptionProfile,
    deviation_threshold: float = DEFAULT_DEVIATION_THRESHOLD,
) -> int:
    """Count current readings that stray too far from the historical norm.

    The norm is the historical median, which shrugs off a few bad archive
    entries. A current reading is flagged when it deviates by more than
    ``deviation_threshold`` as a fraction of that median; with an all-zero
    history any nonzero reading is a deviation.
    """
    if not profile.historical_kwh:
        raise EmptyHistoryError(
            f"meter {profile.meter_id} has no historical records to compare against")
    if not deviation_threshold > 0:  # NaN fails this too
        raise ValueError(f"deviation threshold must be positive, got {deviation_threshold}")
    norm = median(profile.historical_kwh)
    allowed = deviation_threshold * abs(norm)
    return sum(1 for x in profile.current_kwh if abs(x - norm) > allowed)


@dataclass(frozen=True)
class MeterScore:
    meter_id: str
    node: int
    score: AnomalyScore
    probability: AlarmProbability

    @property
    def index(self) -> float:
        return self.score.value * self.probability.value


def rank_meters(node: int, entries: Sequence[MeterScore]) -> list[MeterScore]:
    """Order a node's meters, most suspicious first.

    Descending by the combined index, ties broken by meter id so the order
    is total and reproducible. Every entry must belong to the node.
    """
    for entry in entries:
        if entry.node != node:
            raise MeterNotOnNodeError(
                f"meter {entry.meter_id} is on node {entry.node}, not {node}")
    return sorted(entries, key=lambda e: (-e.index, e.meter_id))


def score_window(
    meter_id: str,
    node: int,
    historical_kwh: Sequence[float],
    reported_kwh: Sequence[float | None],
    deviation_threshold: float = DEFAULT_DEVIATION_THRESHOLD,
) -> MeterScore:
    """Score one meter over a reading window.

    ``reported_kwh`` holds one entry per interval, None where the meter
    sent nothing. Deviations from the historical norm and outages are the
    two alarm types; their empirical frequencies feed the combined alarm
    probability, and their union feeds the anomaly score.
    """
    n_total = len(reported_kwh)
    present = [x for x in reported_kwh if x is not None]
    n_outage = n_total - len(present)
    n_dev = flag_profile(
        ConsumptionProfile(
            meter_id=meter_id,
            historical_kwh=tuple(historical_kwh),
            current_kwh=tuple(present),
        ),
        deviation_threshold,
    )
    n_anomalous = min(n_dev + n_outage, n_total)
    if n_total == 0:
        components: tuple[float, ...] = ()
    else:
        components = (n_dev / n_total, n_outage / n_total)
    return MeterScore(
        meter_id=meter_id,
        node=node,
        score=anomaly_score(n_anomalous, n_total),
        probability=alarm_probability(components),
    )
