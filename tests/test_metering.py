"""Metering simulation, tampering, and the discrepancy trigger."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsleuth.errors import (
    InvalidIdError,
    UnknownFrtuError,
    UnknownNodeError,
    ZeroAggregateError,
)
from gridsleuth.metering import (
    CustomerMeter,
    SimulationOracle,
    Tamper,
    TamperKind,
    detect,
    feeder_discrepancy,
    load_scenario,
    simulate_interval,
)
from gridsleuth.networks import ct8
from gridsleuth.topology import states_from_string

from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def meters_flat(tamper_node=None, tamper=None):
    out = []
    for node in range(2, 8):
        t = tamper if node == tamper_node else None
        out.append(CustomerMeter(
            meter_id=f"M-{node:02d}", node=node, base_load_kwh=10.0, tamper=t))
    return out


def test_clean_interval_balances():
    t = ct8()
    interval = simulate_interval(t, t.normal_states(), meters_flat(), seed=1)
    for fr in interval.frtu_readings:
        assert fr.aggregate_kwh == pytest.approx(fr.reported_sum_kwh)
        assert feeder_discrepancy(interval, fr.frtu) == 0.0


def test_zero_noise_draws_exact_base_load():
    t = ct8()
    interval = simulate_interval(t, t.normal_states(), meters_flat(), seed=9)
    assert all(r.true_kwh == 10.0 for r in interval.readings)


def test_scale_tamper_reduces_reported_only():
    t = ct8()
    tm = Tamper(TamperKind.SCALE, 0.5)
    interval = simulate_interval(
        t, t.normal_states(), meters_flat(5, tm), seed=1)
    reading = next(r for r in interval.readings if r.node == 5)
    assert reading.true_kwh == 10.0
    assert reading.reported_kwh == 5.0
    # Feeder 2 carries 30 true vs 25 reported.
    assert feeder_discrepancy(interval, "FRTU_2") == pytest.approx(5 / 30)


def test_fixed_and_outage_tampers():
    t = ct8()
    fixed = simulate_interval(
        t, t.normal_states(), meters_flat(7, Tamper(TamperKind.FIXED, 2.5)), seed=1)
    assert next(r for r in fixed.readings if r.node == 7).reported_kwh == 2.5
    out = simulate_interval(
        t, t.normal_states(), meters_flat(7, Tamper(TamperKind.OUTAGE)), seed=1)
    assert next(r for r in out.readings if r.node == 7).reported_kwh is None
    # A silenced meter drops out of the reported sum entirely.
    assert out.frtu("FRTU_2").reported_sum_kwh == pytest.approx(20.0)


def test_detect_threshold_is_strict():
    assert not detect(0.2)
    assert detect(0.2000001)
    assert not detect(0.1999999)


def test_island_load_consumes_but_leaves_aggregates():
    t = ct8()
    states = states_from_string("1111001", t)
    interval = simulate_interval(t, states, meters_flat(), seed=3)
    # Node 6 runs on its microgrid: true consumption recorded, but no
    # FRTU covers it.
    r6 = next(r for r in interval.readings if r.node == 6)
    assert r6.true_kwh == 10.0
    assert 6 not in interval.frtu("FRTU_1").covered_nodes
    assert 6 not in interval.frtu("FRTU_2").covered_nodes
    assert interval.frtu("FRTU_1").aggregate_kwh == pytest.approx(40.0)
    assert interval.frtu("FRTU_2").aggregate_kwh == pytest.approx(10.0)


def test_dark_load_consumes_nothing():
    t = ct8()
    # Edge 5 open with the tie still open strands node 5 without DG.
    states = states_from_string("1110011", t)
    interval = simulate_interval(t, states, meters_flat(), seed=3)
    r5 = next(r for r in interval.readings if r.node == 5)
    assert r5.true_kwh == 0.0
    assert r5.reported_kwh == 0.0


def test_loss_factor_inflates_aggregate():
    t = ct8()
    interval = simulate_interval(
        t, t.normal_states(), meters_flat(), seed=1, loss_factor=0.05)
    assert interval.frtu("FRTU_2").aggregate_kwh == pytest.approx(31.5)
    # Technical losses alone must not trip a 20% trigger.
    assert not detect(feeder_discrepancy(interval, "FRTU_2"))


def test_zero_aggregate_with_reports_raises():
    t = ct8()
    # A zero-consumption customer whose meter fabricates a fixed reading:
    # the feeder carries nothing, the books say otherwise.
    meters = [CustomerMeter("M-05", 5, 0.0, Tamper(TamperKind.FIXED, 4.0))]
    interval = simulate_interval(t, t.normal_states(), meters, seed=1)
    assert interval.frtu("FRTU_2").aggregate_kwh == 0.0
    assert interval.frtu("FRTU_2").reported_sum_kwh == 4.0
    with pytest.raises(ZeroAggregateError):
        feeder_discrepancy(interval, "FRTU_2")


def test_quiet_feeder_has_zero_discrepancy():
    t = ct8()
    meters = [CustomerMeter("M-02", 2, 10.0)]
    interval = simulate_interval(t, t.normal_states(), meters, seed=1)
    assert feeder_discrepancy(interval, "FRTU_2") == 0.0


def test_meter_on_source_node_rejected():
    t = ct8()
    meters = [CustomerMeter("M-01", 1, 10.0)]
    with pytest.raises(UnknownNodeError):
        simulate_interval(t, t.normal_states(), meters, seed=1)


def test_meter_placement_errors_follow_meter_order():
    t = ct8()
    on_source = CustomerMeter("M-01", 1, 10.0)
    outside = CustomerMeter("M-99", 99, 10.0)
    ok = CustomerMeter("M-02", 2, 10.0)
    with pytest.raises(InvalidIdError):
        simulate_interval(t, t.normal_states(), [ok, outside, on_source], seed=1)
    with pytest.raises(UnknownNodeError):
        simulate_interval(t, t.normal_states(), [ok, on_source, outside], seed=1)


def test_unknown_frtu_lookup():
    t = ct8()
    interval = simulate_interval(t, t.normal_states(), meters_flat(), seed=1)
    with pytest.raises(UnknownFrtuError):
        interval.frtu("FRTU_9")


def test_draws_deterministic_per_seed_and_interval():
    t = ct8()
    a = simulate_interval(t, t.normal_states(), meters_flat(), seed=5, noise=0.1, index=3)
    b = simulate_interval(t, t.normal_states(), meters_flat(), seed=5, noise=0.1, index=3)
    c = simulate_interval(t, t.normal_states(), meters_flat(), seed=5, noise=0.1, index=4)
    assert [r.true_kwh for r in a.readings] == [r.true_kwh for r in b.readings]
    assert [r.true_kwh for r in a.readings] != [r.true_kwh for r in c.readings]


def test_draws_independent_of_switch_states():
    # Reconfiguring must not change what customers would have consumed.
    t = ct8()
    a = simulate_interval(t, t.normal_states(), meters_flat(), seed=5, noise=0.1)
    b = simulate_interval(
        t, states_from_string("1111001", t), meters_flat(), seed=5, noise=0.1)
    for ra, rb in zip(a.readings, b.readings):
        if rb.true_kwh != 0.0:
            assert ra.true_kwh == rb.true_kwh


@given(
    noise=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**31),
    index=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_noise_bounds_respected(noise, seed, index):
    t = ct8()
    interval = simulate_interval(
        t, t.normal_states(), meters_flat(), seed=seed, noise=noise, index=index)
    for r in interval.readings:
        assert 10.0 * (1 - noise) <= r.true_kwh <= 10.0 * (1 + noise)


def test_scenario_loading():
    sc = load_scenario(SCENARIO_DIR / "tamper_node5.json")
    assert sc.topology.n_nodes == 8
    assert sc.alarm_edge == 7
    assert sc.ground_truth == (5,)
    assert sc.threshold == 0.2
    m5 = next(m for m in sc.meters if m.node == 5)
    assert m5.tamper == Tamper(TamperKind.SCALE, 0.0)
    assert next(m for m in sc.meters if m.node == 2).tamper is None


def test_oracle_reports_per_frtu_alarms():
    t = ct8()
    oracle = SimulationOracle(
        t, meters_flat(5, Tamper(TamperKind.SCALE, 0.0)), seed=7)
    normal = oracle(t.normal_states())
    assert normal == {"FRTU_1": False, "FRTU_2": True}
    shifted = oracle(states_from_string("1111001", t))
    assert shifted == {"FRTU_1": True, "FRTU_2": False}


def test_oracle_caches_per_state():
    t = ct8()
    oracle = SimulationOracle(t, meters_flat(), seed=7)
    first = oracle(t.normal_states())
    assert oracle(t.normal_states()) is first
