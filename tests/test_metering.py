"""Metering simulation, tampering, and the discrepancy trigger.

``reference_simulate_interval`` is the per-meter loop the columnar
simulator replaced: one reading per meter, then one sum per FRTU over the
readings it meters. ``simulate_interval``'s columns must give the same
readings, its ``frtus`` the same FRTUs and its sums the same values under
``==``, with the same placement errors, and ``simulate_intervals`` over
several indices must give what one ``simulate_interval`` call per index
gives. ``SimulationOracle`` must give at every state, in any read order,
the alarms and errors of one ``simulate_interval`` at that state, where
``detect(feeder_discrepancy(...))`` applies the alarm rule.
"""

import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsleuth import cli
from gridsleuth.energize import energized_nodes, frtu_coverage
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
    frtu_alarms,
    load_scenario,
    simulate_interval,
    simulate_intervals,
)
from gridsleuth.networks import ct8
from gridsleuth.topology import NodeKind, states_from_string
from test_labelling import random_cases

from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def meters_flat(tamper_node=None, tamper=None):
    out = []
    for node in range(2, 8):
        t = tamper if node == tamper_node else None
        out.append(CustomerMeter(
            meter_id=f"M-{node:02d}", node=node, base_load_kwh=10.0, tamper=t))
    return out


def at_node(interval, node):
    """(true kWh, reported kWh or None if silenced) of ``meters_flat``'s
    meter on ``node``."""
    i = node - 2
    reported = None if interval.silenced[i] else interval.reported_kwh[i]
    return interval.true_kwh[i], reported


def sums(interval, frtu):
    """(aggregate, reported sum) of ``frtu`` in ``interval``."""
    i = interval.frtus.index(frtu)
    return interval.aggregate_kwh[i], interval.reported_sum_kwh[i]


def test_clean_interval_balances():
    t = ct8()
    interval = simulate_interval(t, t.normal_states(), meters_flat(), seed=1)
    assert interval.frtus == ("FRTU_1", "FRTU_2")
    for frtu in interval.frtus:
        aggregate, reported_sum = sums(interval, frtu)
        assert aggregate == pytest.approx(reported_sum)
        assert feeder_discrepancy(interval, frtu) == 0.0


def test_zero_noise_draws_exact_base_load():
    t = ct8()
    interval = simulate_interval(t, t.normal_states(), meters_flat(), seed=9)
    assert interval.true_kwh.tolist() == [10.0] * 6


def test_scale_tamper_reduces_reported_only():
    t = ct8()
    tm = Tamper(TamperKind.SCALE, 0.5)
    interval = simulate_interval(
        t, t.normal_states(), meters_flat(5, tm), seed=1)
    assert at_node(interval, 5) == (10.0, 5.0)
    # Feeder 2 carries 30 true vs 25 reported.
    assert feeder_discrepancy(interval, "FRTU_2") == pytest.approx(5 / 30)


def test_fixed_and_outage_tampers():
    t = ct8()
    fixed = simulate_interval(
        t, t.normal_states(), meters_flat(7, Tamper(TamperKind.FIXED, 2.5)), seed=1)
    assert at_node(fixed, 7)[1] == 2.5
    out = simulate_interval(
        t, t.normal_states(), meters_flat(7, Tamper(TamperKind.OUTAGE)), seed=1)
    assert at_node(out, 7)[1] is None
    # A silenced meter drops out of the reported sum entirely.
    assert sums(out, "FRTU_2")[1] == pytest.approx(20.0)


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
    assert at_node(interval, 6)[0] == 10.0
    assert interval.frtu_index[6 - 2] == -1
    assert 6 not in set().union(*frtu_coverage(t, states).values())
    assert sums(interval, "FRTU_1")[0] == pytest.approx(40.0)
    assert sums(interval, "FRTU_2")[0] == pytest.approx(10.0)


def test_dark_load_consumes_nothing():
    t = ct8()
    # Edge 5 open with the tie still open strands node 5 without DG.
    states = states_from_string("1110011", t)
    interval = simulate_interval(t, states, meters_flat(), seed=3)
    assert at_node(interval, 5) == (0.0, 0.0)


def test_loss_factor_inflates_aggregate():
    t = ct8()
    interval = simulate_interval(
        t, t.normal_states(), meters_flat(), seed=1, loss_factor=0.05)
    assert sums(interval, "FRTU_2")[0] == pytest.approx(31.5)
    # Technical losses alone must not trip a 20% trigger.
    assert not detect(feeder_discrepancy(interval, "FRTU_2"))


def test_zero_aggregate_with_reports_raises():
    t = ct8()
    # A zero-consumption customer whose meter fabricates a fixed reading:
    # the feeder carries nothing, the books say otherwise.
    meters = [CustomerMeter("M-05", 5, 0.0, Tamper(TamperKind.FIXED, 4.0))]
    interval = simulate_interval(t, t.normal_states(), meters, seed=1)
    assert sums(interval, "FRTU_2") == (0.0, 4.0)
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
    with pytest.raises(UnknownFrtuError, match="^no FRTU named 'FRTU_9' in this interval$"):
        feeder_discrepancy(interval, "FRTU_9")


def test_draws_deterministic_per_seed_and_interval():
    t = ct8()
    a = simulate_interval(t, t.normal_states(), meters_flat(), seed=5, noise=0.1, index=3)
    b = simulate_interval(t, t.normal_states(), meters_flat(), seed=5, noise=0.1, index=3)
    c = simulate_interval(t, t.normal_states(), meters_flat(), seed=5, noise=0.1, index=4)
    assert a.true_kwh.tolist() == b.true_kwh.tolist()
    assert a.true_kwh.tolist() != c.true_kwh.tolist()


def test_draws_independent_of_switch_states():
    # Reconfiguring must not change what customers would have consumed.
    t = ct8()
    a = simulate_interval(t, t.normal_states(), meters_flat(), seed=5, noise=0.1)
    b = simulate_interval(
        t, states_from_string("1111001", t), meters_flat(), seed=5, noise=0.1)
    for true_a, true_b in zip(a.true_kwh.tolist(), b.true_kwh.tolist()):
        if true_b != 0.0:
            assert true_a == true_b


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
    for true_kwh in interval.true_kwh.tolist():
        assert 10.0 * (1 - noise) <= true_kwh <= 10.0 * (1 + noise)


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


OUT_OF_RANGE = [
    ("noise", 3.0), ("noise", -0.1), ("noise", float("nan")),
    ("loss_factor", -0.5), ("loss_factor", float("inf")),
    ("seed", -1), ("seed", 2.5), ("seed", True),
]


@pytest.mark.parametrize("name, value", OUT_OF_RANGE + [
    ("threshold", float("nan")), ("threshold", -0.1), ("threshold", float("inf")),
])
def test_oracle_rejects_out_of_range_parameters(name, value):
    t = ct8()
    with pytest.raises(ValueError, match=name):
        SimulationOracle(t, meters_flat(), **{"seed": 7, name: value})


@pytest.mark.parametrize("name, value", OUT_OF_RANGE)
def test_simulation_rejects_out_of_range_parameters(name, value):
    t = ct8()
    kw = {"seed": 7, name: value}
    with pytest.raises(ValueError, match=name):
        simulate_interval(t, t.normal_states(), meters_flat(), **kw)
    # The check runs when the intervals are asked for, not on the first draw.
    with pytest.raises(ValueError, match=name):
        simulate_intervals(t, t.normal_states(), meters_flat(), indices=range(2), **kw)


def test_range_ends_are_accepted():
    t = ct8()
    oracle = SimulationOracle(t, meters_flat(), seed=0, noise=1.0, loss_factor=0.0,
                              threshold=0.0)
    assert oracle(t.normal_states()) == {"FRTU_1": False, "FRTU_2": False}
    interval = simulate_interval(t, t.normal_states(), meters_flat(), 0, noise=1.0)
    assert min(interval.true_kwh) >= 0.0


# ------------------------------------------- oracle vs one simulation per read

def read_outcome(read):
    """``read()``'s alarms, or the error's type and message."""
    try:
        return read()
    except (InvalidIdError, UnknownNodeError, ZeroAggregateError) as exc:
        return type(exc), str(exc)


def simulated_alarms(topo, states, meters, seed, threshold, **kw):
    """Alarms of one interval simulated at ``states`` itself."""
    interval = simulate_interval(topo, states, meters, seed, **kw)
    return {frtu: detect(feeder_discrepancy(interval, frtu), threshold)
            for frtu in interval.frtus}


def assert_oracle_matches_simulation(topo, order, meters, seed, threshold, **kw):
    """Read ``order`` through one oracle, the first a fresh read, each against
    a simulation at that state; return the outcomes."""
    oracle = SimulationOracle(topo, meters, seed, threshold=threshold, **kw)
    outcomes = []
    for states in order:
        got = read_outcome(lambda: oracle(states))
        assert got == read_outcome(
            lambda: simulated_alarms(topo, states, meters, seed, threshold, **kw))
        outcomes.append(got)
    return outcomes


@pytest.mark.parametrize("seed", range(100))
def test_oracle_matches_one_simulation_per_read(seed):
    rng = np.random.default_rng([89, seed])
    cases = list(random_cases(seed))
    outcomes = []
    for topo in dict.fromkeys(t for t, _ in cases):
        # random_cases yields the normal state first; read it mid-way, so the
        # oracle's first read is at a non-normal state.
        order = [s for t, s in cases if t is topo]
        order = order[1:6] + order[:1] + order[6:] + order[1:3]
        kw = {"noise": float(rng.choice([0.05, 0.3])),
              "loss_factor": float(rng.choice([0.01, 0.04]))}
        outcomes += assert_oracle_matches_simulation(
            topo, order, random_meters(topo, rng), int(rng.integers(1 << 20)),
            float(rng.choice([0.0, 0.05, 0.2])), **kw)
    assert any(isinstance(outcome, dict) for outcome in outcomes)


def test_oracle_zero_aggregate_error_matches_simulation():
    t = ct8()
    meters = [CustomerMeter("M-02", 2, 10.0),
              CustomerMeter("M-05", 5, 0.0, Tamper(TamperKind.FIXED, 4.0))]
    # Tie closed and edge 5 open: FRTU_1 carries node 5 and alarms on its
    # fabricated report; at the normal state FRTU_2 carries nothing but it.
    shifted = states_from_string("1111001", t)
    got = assert_oracle_matches_simulation(
        t, [shifted, t.normal_states(), shifted], meters, 3, 0.2,
        noise=0.1, loss_factor=0.05)
    assert got[0] == got[2] == {"FRTU_1": True, "FRTU_2": False}
    assert got[1] == (ZeroAggregateError,
                      "FRTU_2 aggregate is zero but customer reports sum to 4.0")


@pytest.mark.parametrize("bad, error", [(1, UnknownNodeError), (99, InvalidIdError)])
def test_oracle_raises_placement_errors_on_first_read(bad, error):
    t = ct8()
    meters = meters_flat() + [CustomerMeter("M-X", bad, 1.0)]
    oracle = SimulationOracle(t, meters, seed=7)
    shifted = states_from_string("1111001", t)
    with pytest.raises(error) as raised:
        oracle(shifted)
    with pytest.raises(error) as want:
        simulate_interval(t, shifted, meters, seed=7)
    assert str(raised.value) == str(want.value)
    assert read_outcome(lambda: oracle(t.normal_states())) == (error, str(want.value))


# ------------------------------------------------- columnar vs per-meter loop

def reference_simulate_interval(topo, states, meters, seed, *, noise=0.0,
                                loss_factor=0.0, index=0):
    """(readings, FRTU sums) from one reading per meter: each reading is
    (true kWh, reported kWh or None, covering FRTU or None), and the sums
    are (FRTU names, aggregates, reported sums)."""
    states = topo.check_states(states)
    loads = topo.load_ids
    for m in meters:
        if m.node not in loads:
            topo.node(m.node)
            raise UnknownNodeError(
                f"meter {m.meter_id} placed on non-load node {m.node}")
    powered = energized_nodes(
        topo, states, topo.source_vector() | topo.dg_vector()).tolist()
    coverage = sorted(frtu_coverage(topo, states).items())
    frtu_of = {node: frtu for frtu, covered in coverage for node in covered}
    rng = np.random.default_rng([seed, index])
    draws = rng.uniform(1.0 - noise, 1.0 + noise, size=len(meters))
    readings = []
    for m, draw in zip(meters, draws):
        true_kwh = m.base_load_kwh * draw if powered[m.node - 1] else 0.0
        if m.tamper is None:
            reported = true_kwh
        elif m.tamper.kind is TamperKind.SCALE:
            reported = true_kwh * m.tamper.value
        elif m.tamper.kind is TamperKind.FIXED:
            reported = m.tamper.value
        else:
            reported = None
        readings.append((true_kwh, reported, frtu_of.get(m.node)))
    aggregate, reported_sum = [], []
    for frtu, covered in coverage:
        mine = [r for m, r in zip(meters, readings) if m.node in covered]
        aggregate.append(left_to_right_sum(r[0] for r in mine) * (1.0 + loss_factor))
        reported_sum.append(left_to_right_sum(r[1] for r in mine if r[1] is not None))
    return readings, (tuple(frtu for frtu, _ in coverage), aggregate, reported_sum)


def interval_readings(interval):
    """``reference_simulate_interval``'s (readings, FRTU sums), read from
    ``interval``'s columns, ``frtus`` and sums."""
    readings = [
        (true_kwh, None if silenced else reported, interval.frtus[j] if j >= 0 else None)
        for true_kwh, reported, silenced, j in zip(
            interval.true_kwh.tolist(), interval.reported_kwh.tolist(),
            interval.silenced.tolist(), interval.frtu_index.tolist())
    ]
    return readings, (interval.frtus, interval.aggregate_kwh, interval.reported_sum_kwh)


def left_to_right_sum(values):
    """Plain float addition in order (``sum`` compensates from Python 3.12)."""
    total = 0.0
    for x in values:
        total += x
    return total


def random_meters(topo, rng):
    """0-2 meters per load with every tamper kind, and now and then a meter
    on a source or outside the network, anywhere in the list."""
    tampers = [None, None, None, Tamper(TamperKind.SCALE, 0.5),
               Tamper(TamperKind.SCALE, 0.0), Tamper(TamperKind.FIXED, 0.7),
               Tamper(TamperKind.OUTAGE)]
    meters = [
        CustomerMeter(f"M-{n}-{j}", n, float(rng.uniform(0.5, 3.0)),
                      tampers[int(rng.integers(len(tampers)))])
        for n in sorted(topo.load_ids) for j in range(int(rng.integers(0, 3)))
    ]
    sources = [n.id for n in topo.nodes if n.kind is NodeKind.SOURCE]
    for bad in (sources[0], 0, topo.n_nodes + 1):
        if rng.random() < 0.05:
            meters.insert(int(rng.integers(len(meters) + 1)),
                          CustomerMeter(f"X-{bad}", bad, 1.0))
    return meters


def simulation_outcome(simulate, topo, states, meters, **kw):
    """(readings, FRTU sums) of one interval, or the error's type and message."""
    try:
        got = simulate(topo, states, meters, **kw)
    except (InvalidIdError, UnknownNodeError) as exc:
        return type(exc), str(exc)
    if isinstance(got, tuple):
        return got
    return interval_readings(got)


def simulation_cases(seed):
    """The labelling fuzzer's (network, switch vector) pairs with random
    meters, noise, losses and interval index."""
    rng = np.random.default_rng([71, seed])
    for topo, states in random_cases(seed):
        kw = {"seed": int(rng.integers(1 << 20)),
              "noise": float(rng.choice([0.0, 0.05, 0.3])),
              "loss_factor": float(rng.choice([0.0, 0.04])),
              "index": int(rng.integers(100))}
        yield topo, states, random_meters(topo, rng), kw


def interval_columns(simulate):
    """(index, readings, FRTU sums, column bytes) of each interval that
    ``simulate()`` returns, or the error's type and message."""
    try:
        return [
            (got.index, *interval_readings(got),
             *(col.tobytes() for col in (got.true_kwh, got.reported_kwh,
                                         got.silenced, got.frtu_index)))
            for got in simulate()
        ]
    except (InvalidIdError, UnknownNodeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(100))
def test_columnar_simulation_matches_per_meter_loop(seed):
    for topo, states, meters, kw in simulation_cases(seed):
        got = simulation_outcome(simulate_interval, topo, states, meters, **kw)
        want = simulation_outcome(reference_simulate_interval, topo, states, meters, **kw)
        assert got == want
        if isinstance(want[0], list):
            # The oracle's alarm rule on these sums, against detect per FRTU.
            frtus, aggregate, reported_sum = want[1]
            for threshold in (0.0, 0.05):
                assert read_outcome(lambda: frtu_alarms(
                    frtus, aggregate, reported_sum, threshold)) == read_outcome(
                    lambda: simulated_alarms(topo, states, meters, threshold=threshold, **kw))
        # One state simulated for 1-3 intervals at once equals one call per
        # interval, errors included.
        n = 1 + kw["index"] % 3
        seed_, rest = kw["seed"], {"noise": kw["noise"], "loss_factor": kw["loss_factor"]}
        assert interval_columns(
            lambda: simulate_intervals(topo, states, meters, seed_, range(n), **rest)
        ) == interval_columns(lambda: [
            simulate_interval(topo, states, meters, seed_, index=k, **rest)
            for k in range(n)])


def test_simulation_cases_cover_tampers_dark_loads_islands_and_errors():
    seen = Counter()
    for seed in range(100):
        for topo, states, meters, kw in simulation_cases(seed):
            outcome = simulation_outcome(
                reference_simulate_interval, topo, states, meters, **kw)
            if outcome[0] in (InvalidIdError, UnknownNodeError):
                seen[outcome[0].__name__] += 1
                continue
            readings, _ = outcome
            coverage = frtu_coverage(topo, states).values()
            seen["noise"] += kw["noise"] > 0
            seen["losses"] += kw["loss_factor"] > 0
            for m in meters:
                if m.tamper is not None:
                    seen[m.tamper.kind.value] += 1
            seen["dark"] += any(true_kwh == 0.0 for true_kwh, _, _ in readings)
            seen["island"] += any(true_kwh > 0.0 and frtu is None
                                  for true_kwh, _, frtu in readings)
            seen["empty FRTU"] += any(not covered for covered in coverage)
            seen["unmetered FRTU"] += any(
                covered and not {m.node for m in meters} & covered for covered in coverage)
    assert len(seen) == 11 and min(seen.values()) >= 20, seen


# ------------------------------------------------------- scenario checking

def _scenario_file(tmp_path, **overrides):
    doc = json.loads((SCENARIO_DIR / "tamper_node5.json").read_text())
    doc["topology"] = str(SCENARIO_DIR / doc["topology"])
    meter = overrides.pop("meter", {})
    doc["meters"][0].update(meter)
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("overrides, message", [
    ({"noise": float("nan")}, "noise"),
    ({"noise": -0.01}, "noise"),
    ({"noise": 1.5}, "noise"),
    ({"loss_factor": -0.05}, "loss_factor"),
    ({"loss_factor": float("inf")}, "loss_factor"),
    ({"threshold": -0.2}, "threshold"),
    ({"threshold": float("nan")}, "threshold"),
    ({"meter": {"base_load_kwh": -1.0}}, "base_load_kwh"),
    ({"meter": {"base_load_kwh": float("nan")}}, "base_load_kwh"),
    ({"meter": {"tamper": {"mode": "fixed", "value": float("inf")}}}, "tamper value"),
    # A JSON boolean is not a number: true would read as 1.0, false as 0.0.
    ({"noise": True}, "noise"),
    ({"loss_factor": False}, "loss_factor"),
    ({"threshold": True}, "threshold"),
    ({"meter": {"base_load_kwh": True}}, "base_load_kwh"),
    ({"meter": {"tamper": {"mode": "fixed", "value": True}}}, "tamper value"),
])
def test_load_scenario_rejects_non_finite_and_out_of_range_numbers(
        tmp_path, capsys, overrides, message):
    path = _scenario_file(tmp_path, **overrides)
    with pytest.raises(ValueError, match=message):
        load_scenario(path)
    assert cli.main(["sim", "run", str(path), "--out", str(tmp_path / "h.csv")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("mode, value", [("scale", -2.0), ("fixed", -0.5), ("scale", -1e-9)])
def test_negative_tamper_values_exit_1_naming_the_meter(tmp_path, capsys, mode, value):
    # A meter never reports negative energy, so no tamper may make it.
    path = _scenario_file(tmp_path, meter={"tamper": {"mode": mode, "value": value}})
    message = "meter M-02 tamper value must be a finite number in [0, inf]"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_scenario(path)
    history = tmp_path / "h.csv"
    history.write_text("interval,meter_id,node,true_kwh,reported_kwh,frtu\r\n")
    for argv in (["sim", "run", str(path), "--out", str(tmp_path / "new.csv")],
                 ["localize", "run", str(path), "--out-dir", str(tmp_path / "loc")],
                 ["score", str(path), "--history", str(history), "--node", "2",
                  "--out", str(tmp_path / "scores.csv")]):
        assert cli.main(argv) == 1, argv
        assert message in capsys.readouterr().err
    assert not any((tmp_path / name).exists() for name in ("new.csv", "loc", "scores.csv"))


def test_load_scenario_accepts_the_range_ends(tmp_path):
    path = _scenario_file(tmp_path, noise=1.0, loss_factor=0.0, threshold=0.0,
                          meter={"base_load_kwh": 0.0})
    sc = load_scenario(path)
    assert (sc.noise, sc.loss_factor, sc.threshold) == (1.0, 0.0, 0.0)
    assert sc.meters[0].base_load_kwh == 0.0


def _set(key):
    return lambda doc, topo, value: doc.update({key: value})


# (field named in the error, how to put a value in the scenario or topology)
INTEGER_FIELDS = [
    ("seed", _set("seed")),
    ("intervals", _set("intervals")),
    ("alarm_edge", _set("alarm_edge")),
    ("ground_truth", lambda doc, topo, value: doc.update(ground_truth=[value])),
    ("meter M-02 node", lambda doc, topo, value: doc["meters"][0].update(node=value)),
    ("node id", lambda doc, topo, value: topo["nodes"][1].update(id=value)),
    ("edge id", lambda doc, topo, value: topo["edges"][1].update(id=value)),
    ("edge 2 from", lambda doc, topo, value: topo["edges"][1].update({"from": value})),
    ("edge 2 to", lambda doc, topo, value: topo["edges"][1].update(to=value)),
]


@pytest.mark.parametrize("value", [5.6, 2.0000001, True, False, float("inf"), "x"])
@pytest.mark.parametrize("field, put", INTEGER_FIELDS, ids=[f for f, _ in INTEGER_FIELDS])
def test_integer_fields_reject_booleans_and_fractions(tmp_path, capsys, field, put, value):
    doc = json.loads((SCENARIO_DIR / "tamper_node5.json").read_text())
    topo = json.loads((SCENARIO_DIR / "ct8.json").read_text())
    put(doc, topo, value)
    (tmp_path / "topo.json").write_text(json.dumps(topo))
    doc["topology"] = "topo.json"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        load_scenario(path)
    assert cli.main(["sim", "run", str(path), "--out", str(tmp_path / "h.csv")]) == 1
    assert f"{field} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


# (field named in the error, its allowed values, how to put an unknown value
# in the scenario or topology)
ENUM_FIELDS = [
    ('node 3 "kind"', "'source', 'load'",
     lambda doc, topo: topo["nodes"][2].update(kind="loadx")),
    ('edge 3 "kind"', "'breaker', 'sectionalizer', 'tie'",
     lambda doc, topo: topo["edges"][2].update(kind="switch")),
    ("meter M-05 tamper mode", "'scale', 'fixed', 'outage'",
     lambda doc, topo: doc["meters"][3].update(tamper={"mode": "zero"})),
]


@pytest.mark.parametrize("field, allowed, put", ENUM_FIELDS, ids=[f for f, _, _ in ENUM_FIELDS])
def test_unknown_kinds_and_modes_name_the_field_and_the_allowed_values(
        tmp_path, capsys, field, allowed, put):
    doc = json.loads((SCENARIO_DIR / "tamper_node5.json").read_text())
    topo = json.loads((SCENARIO_DIR / "ct8.json").read_text())
    put(doc, topo)
    (tmp_path / "topo.json").write_text(json.dumps(topo))
    doc["topology"] = "topo.json"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    message = f"{field} must be one of {allowed}, got "
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        load_scenario(path)
    assert cli.main(["sim", "run", str(path), "--out", str(tmp_path / "h.csv")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


def test_tamper_from_dict_names_its_owner():
    with pytest.raises(ValueError, match="^meter M-05 tamper mode must be one of "
                                         "'scale', 'fixed', 'outage', got 'zero'$"):
        Tamper.from_dict({"mode": "zero"}, "meter M-05 tamper")
    with pytest.raises(ValueError, match=r"^tamper value must be a finite number"):
        Tamper.from_dict({"mode": "scale", "value": -1.0})
    assert Tamper.from_dict({"mode": "fixed", "value": 2}) == Tamper(TamperKind.FIXED, 2.0)


@pytest.mark.parametrize("truth, message", [
    ([5, 5], "ground_truth lists node 5 more than once"),
    ([99], "ground_truth node 99 is not a load of the topology"),
    ([1], "ground_truth node 1 is not a load of the topology"),
])
def test_ground_truth_must_list_loads_of_the_topology_once(tmp_path, capsys, truth, message):
    # Each was a verdict mismatch (exit 2) under --check, not malformed input.
    path = _scenario_file(tmp_path, ground_truth=truth)
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_scenario(path)
    out_dir = tmp_path / "loc"
    assert cli.main(["localize", "run", str(path), "--out-dir", str(out_dir), "--check"]) == 1
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def _as_floats(doc):
    """``doc`` with every integer (not boolean) written as a float."""
    if isinstance(doc, dict):
        return {key: _as_floats(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_as_floats(value) for value in doc]
    return float(doc) if type(doc) is int else doc


def test_integer_fields_accept_whole_floats(tmp_path):
    doc = json.loads((SCENARIO_DIR / "tamper_node5.json").read_text())
    topo = json.loads((SCENARIO_DIR / "ct8.json").read_text())
    (tmp_path / "topo.json").write_text(json.dumps(_as_floats(topo)))
    doc = _as_floats(doc) | {"topology": "topo.json"}
    assert doc["seed"] == 7.0 and type(doc["seed"]) is float
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    got, want = load_scenario(path), load_scenario(SCENARIO_DIR / "tamper_node5.json")
    assert (got.seed, got.intervals, got.alarm_edge, got.ground_truth) == (
        want.seed, want.intervals, want.alarm_edge, want.ground_truth)
    assert type(got.seed) is type(got.intervals) is type(got.alarm_edge) is int
    assert [m.node for m in got.meters] == [m.node for m in want.meters]
    assert got.topology.nodes == want.topology.nodes
    assert got.topology.edges == want.topology.edges
