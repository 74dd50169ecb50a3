"""Customer scoring: fractions, alarm combination, profiling, ranking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsleuth.errors import (
    CountOutOfRangeError,
    EmptyHistoryError,
    MeterNotOnNodeError,
    ProbabilityOutOfRangeError,
)
from gridsleuth.metering import CustomerMeter, Tamper, TamperKind, simulate_interval
from gridsleuth.networks import ct8
from gridsleuth.scoring import (
    AlarmProbability,
    AnomalyScore,
    ConsumptionProfile,
    MeterScore,
    alarm_probability,
    anomaly_score,
    flag_profile,
    rank_meters,
    score_window,
)


# ---------------------------------------------------------------- fractions

def test_anomaly_score_examples():
    assert anomaly_score(0, 96).value == 0.0
    assert anomaly_score(96, 96).value == 1.0
    assert anomaly_score(12, 96).value == pytest.approx(0.125)


def test_anomaly_score_empty_window_is_zero():
    s = anomaly_score(0, 0)
    assert s.value == 0.0
    assert s.n_total == 0


def test_anomaly_score_rejects_bad_counts():
    with pytest.raises(CountOutOfRangeError):
        anomaly_score(-1, 5)
    with pytest.raises(CountOutOfRangeError):
        anomaly_score(5, -1)
    with pytest.raises(CountOutOfRangeError):
        anomaly_score(3, 2)


@given(st.integers(0, 500), st.integers(0, 500))
@settings(max_examples=80, deadline=None)
def test_anomaly_score_always_a_fraction(a, b):
    n_anom, n_total = min(a, b), max(a, b)
    s = anomaly_score(n_anom, n_total)
    assert 0.0 <= s.value <= 1.0


# ----------------------------------------------------------- alarm combining

def test_alarm_probability_examples():
    assert alarm_probability([]).value == 0.0
    assert alarm_probability([1.0, 0.3]).value == pytest.approx(1.0)
    assert alarm_probability([0.5, 0.5]).value == pytest.approx(0.75)


def test_alarm_probability_rejects_out_of_range():
    with pytest.raises(ProbabilityOutOfRangeError):
        alarm_probability([0.5, 1.2])
    with pytest.raises(ProbabilityOutOfRangeError):
        alarm_probability([-0.1])


probs = st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=6)


@given(probs)
@settings(max_examples=100, deadline=None)
def test_alarm_probability_bounds_and_floor(qs):
    p = alarm_probability(qs).value
    assert 0.0 <= p <= 1.0
    if qs:
        # At-least-one can never be less likely than the single likeliest
        # alarm type.
        assert p >= max(qs) - 1e-12


@given(probs, st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_alarm_probability_monotone_in_components(qs, extra):
    base = alarm_probability(qs).value
    assert alarm_probability(qs + [extra]).value >= base - 1e-12
    if qs:
        raised = list(qs)
        raised[0] = max(raised[0], extra)
        assert alarm_probability(raised).value >= base - 1e-12


@given(probs, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_alarm_probability_order_free(qs, rnd):
    shuffled = list(qs)
    rnd.shuffle(shuffled)
    assert alarm_probability(shuffled).value == pytest.approx(
        alarm_probability(qs).value, abs=1e-12)


@given(st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_alarm_probability_singleton(q):
    assert alarm_probability([q]).value == pytest.approx(q, abs=1e-12)


# -------------------------------------------------------------- profiling

def test_flag_profile_identical_history_is_clean():
    profile = ConsumptionProfile("M-01", (10.0,) * 8, (10.0,) * 8)
    assert flag_profile(profile) == 0


def test_flag_profile_halved_consumption_flags_whole_window():
    profile = ConsumptionProfile("M-01", (10.0,) * 8, (5.0,) * 6)
    assert flag_profile(profile, 0.3) == 6


def test_flag_profile_counts_only_large_deviations():
    # Median 10, threshold 0.3 -> band is 7.0..13.0 exclusive of the edges.
    hist = (10.0, 10.0, 10.0, 9.0, 11.0)
    cur = (10.0, 13.5, 6.9, 7.1, 12.9, 3.0)
    assert flag_profile(ConsumptionProfile("M-01", hist, cur), 0.3) == 3


def test_flag_profile_median_ignores_archive_glitch():
    hist = (10.0, 10.0, 10.0, 10.0, 1000.0)
    cur = (10.0, 10.0)
    assert flag_profile(ConsumptionProfile("M-01", hist, cur), 0.3) == 0


def test_flag_profile_zero_history_flags_any_nonzero():
    profile = ConsumptionProfile("M-01", (0.0,) * 4, (0.0, 0.1, 5.0))
    assert flag_profile(profile, 0.3) == 2


def test_flag_profile_requires_history():
    with pytest.raises(EmptyHistoryError):
        flag_profile(ConsumptionProfile("M-01", (), (10.0,)))


def test_flag_profile_requires_positive_threshold():
    profile = ConsumptionProfile("M-01", (10.0,), (10.0,))
    with pytest.raises(ValueError):
        flag_profile(profile, 0.0)


def test_flag_profile_rejects_a_nan_threshold():
    # NaN compares false with everything, so it would flag nothing.
    profile = ConsumptionProfile("M-01", (10.0,), (0.0,))
    with pytest.raises(ValueError):
        flag_profile(profile, math.nan)


# ---------------------------------------------------------------- windows

def test_score_window_mixed_example():
    reported = [10.0, 10.0, 5.0, None, 10.0, 5.0, 10.0, 10.0]
    ms = score_window("M-01", 5, [10.0] * 8, reported)
    assert ms.score.n_anomalous == 3
    assert ms.score.n_total == 8
    assert ms.score.value == pytest.approx(0.375)
    assert ms.probability.components == (0.25, 0.125)
    assert ms.probability.value == pytest.approx(1 - 0.75 * 0.875)
    assert ms.index == pytest.approx(0.375 * (1 - 0.75 * 0.875))


def test_score_window_all_outage():
    ms = score_window("M-01", 5, [10.0] * 4, [None] * 4)
    assert ms.score.value == 1.0
    assert ms.probability.value == pytest.approx(1.0)
    assert ms.index == pytest.approx(1.0)


def test_score_window_empty_window():
    ms = score_window("M-01", 5, [10.0] * 4, [])
    assert ms.score.value == 0.0
    assert ms.probability.value == 0.0
    assert ms.probability.components == ()
    assert ms.index == 0.0


@given(
    st.lists(
        st.one_of(st.none(), st.floats(0.0, 30.0, allow_nan=False)),
        max_size=24,
    )
)
@settings(max_examples=100, deadline=None)
def test_score_window_index_is_a_fraction(reported):
    ms = score_window("M-01", 5, [10.0] * 8, reported)
    assert 0.0 <= ms.index <= 1.0
    assert ms.score.n_anomalous <= ms.score.n_total


# ---------------------------------------------------------------- ranking

def _entry(meter_id: str, n_anom: int, n_total: int, qs: tuple, node: int = 5):
    return MeterScore(
        meter_id=meter_id,
        node=node,
        score=anomaly_score(n_anom, n_total),
        probability=alarm_probability(qs),
    )


def test_rank_meters_orders_by_index_then_id():
    entries = [
        _entry("M-03", 1, 4, (0.5,)),     # index 0.125
        _entry("M-01", 2, 4, (0.5,)),     # index 0.25
        _entry("M-02", 2, 4, (0.5,)),     # index 0.25, id after M-01
        _entry("M-04", 0, 4, ()),         # index 0
    ]
    ranked = rank_meters(5, entries)
    assert [e.meter_id for e in ranked] == ["M-01", "M-02", "M-03", "M-04"]


def test_rank_meters_rejects_foreign_meter():
    entries = [_entry("M-01", 1, 2, (0.5,)), _entry("M-09", 1, 2, (0.5,), node=6)]
    with pytest.raises(MeterNotOnNodeError):
        rank_meters(5, entries)


@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.floats(0.0, 1.0, allow_nan=False)),
        max_size=10,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_rank_meters_total_order(rows, rnd):
    entries = [
        _entry(f"M-{i:02d}", n_anom, 8, (q,)) for i, (n_anom, q) in enumerate(rows)
    ]
    ranked = rank_meters(5, entries)
    assert sorted(e.meter_id for e in ranked) == sorted(e.meter_id for e in entries)
    for hi, lo in zip(ranked, ranked[1:]):
        assert hi.index > lo.index or (
            hi.index == lo.index and hi.meter_id < lo.meter_id)
    shuffled = list(entries)
    rnd.shuffle(shuffled)
    assert [e.meter_id for e in rank_meters(5, shuffled)] == [
        e.meter_id for e in ranked]


# --------------------------------------------------- end-to-end top ranking

def _simulated_top_meter(run_seed: int) -> tuple[str, str]:
    """Simulate a window on one node; return (top-ranked id, tampered id)."""
    topo = ct8()
    states = topo.normal_states()
    rng = np.random.default_rng([4242, run_seed])
    ids = [f"M-{i:02d}" for i in range(6)]
    tampered = ids[int(rng.integers(len(ids)))]
    n_intervals = 10
    active = set(int(t) for t in rng.choice(n_intervals, size=3, replace=False))

    reported: dict[str, list] = {m: [] for m in ids}
    for t in range(n_intervals):
        meters = [
            CustomerMeter(
                meter_id=m, node=5, base_load_kwh=10.0,
                tamper=Tamper(TamperKind.SCALE, 0.5)
                if (m == tampered and t in active) else None,
            )
            for m in ids
        ]
        interval = simulate_interval(
            topo, states, meters, seed=run_seed, noise=0.05, index=t)
        for m, reported_kwh in zip(meters, interval.reported_kwh.tolist()):
            reported[m.meter_id].append(reported_kwh)

    scores = [score_window(m, 5, [10.0] * n_intervals, reported[m]) for m in ids]
    return rank_meters(5, scores)[0].meter_id, tampered


def test_intermittent_tamperer_tops_the_ranking():
    # A meter halving its report on 3 of 10 intervals must outrank honest
    # neighbours whose noise stays inside the deviation band.
    hits = sum(
        top == tampered
        for top, tampered in (_simulated_top_meter(s) for s in range(200))
    )
    assert hits >= 190
