"""Localization planner: golden walks, isolation, and fuzzed episodes."""

import hashlib
import json
import math
import zlib

import numpy as np
import pytest

from episode_fuzz import make_episode, make_mesh, make_mesh_case, two_feeder_chain
from gridsleuth import planner
from gridsleuth.errors import (
    InfeasibleIsolationError,
    InfeasiblePlanError,
    NotABreakerError,
    OracleInconsistentError,
)
from gridsleuth.metering import CustomerMeter, SimulationOracle, Tamper, TamperKind
from gridsleuth.networks import ct8
from gridsleuth.planner import (
    CLOSE,
    OPEN,
    decode,
    isolate_dg_islands,
    localize,
    restore_island_ops,
)
from gridsleuth.topology import (
    EdgeKind,
    build_topology,
    states_from_string,
    states_to_string,
    validate_operating_state,
)


def ct8_oracle(tampered_nodes, seed=7):
    t = ct8()
    meters = [
        CustomerMeter(
            meter_id=f"M-{n:02d}", node=n, base_load_kwh=10.0,
            tamper=Tamper(TamperKind.SCALE, 0.0) if n in tampered_nodes else None)
        for n in range(2, 8)
    ]
    return t, SimulationOracle(t, meters, seed)


GOLDEN_ACTIONS = [(1, CLOSE, 4), (2, OPEN, 5), (3, OPEN, 6)]


@pytest.mark.parametrize("truth", [5, 6, 7])
def test_single_tamper_walks(truth):
    t, oracle = ct8_oracle({truth})
    report = localize(t, 7, oracle)
    assert list(report.final_suspects) == [truth]
    assert [(a.step, a.action, a.edge) for a in report.actions] == GOLDEN_ACTIONS
    post_isolation = [c for c in report.checks if c.after_step >= 3]
    assert len(post_isolation) <= 2
    assert report.suspect_history[0] == (5, 6, 7)
    assert not report.irreducible
    assert report.constraint_violations == ()


def test_island_start_suspects_only_the_alarmed_coverage():
    # Node 6 starts islanded on its DG, so FRTU_2 meters only node 7: the
    # island is dark to every feeder but no meter in it feeds the gap.
    t, oracle = ct8_oracle({7})
    report = localize(t, 7, oracle, initial_states=states_from_string("1111001", t))
    assert report.suspect_history[0] == (7,)
    assert list(report.final_suspects) == [7]


def test_tamper5_check_order_and_history():
    t, oracle = ct8_oracle({5})
    report = localize(t, 7, oracle)
    assert [(c.frtu, c.alarm) for c in report.checks] == [
        ("FRTU_2", False), ("FRTU_1", True)]
    assert [list(h) for h in report.suspect_history] == [[5, 6, 7], [5, 6], [5]]
    assert report.initial_alarms == {"FRTU_1": False, "FRTU_2": True}


def test_tamper6_resolved_by_elimination():
    t, oracle = ct8_oracle({6})
    report = localize(t, 7, oracle)
    # Both post-isolation reads come back clear; only the islanded DG
    # customer is left to carry the discrepancy.
    assert all(not c.alarm for c in report.checks)
    assert list(report.final_suspects) == [6]


def test_multi_tamper_both_found():
    t, oracle = ct8_oracle({5, 7})
    report = localize(t, 7, oracle)
    assert list(report.final_suspects) == [5, 7]
    assert [(a.step, a.action, a.edge) for a in report.actions] == GOLDEN_ACTIONS
    assert len([c for c in report.checks if c.after_step >= 3]) <= 2


def test_no_alarm_produces_empty_report():
    t, oracle = ct8_oracle(set())
    report = localize(t, 7, oracle)
    assert report.actions == ()
    assert report.checks == ()
    assert report.final_suspects == ()
    assert report.suspect_history == ()
    assert report.initial_alarms == {"FRTU_1": False, "FRTU_2": False}


def test_alarm_edge_must_be_breaker():
    t, oracle = ct8_oracle({5})
    with pytest.raises(NotABreakerError):
        localize(t, 4, oracle)


def test_committed_states_all_validate():
    t, oracle = ct8_oracle({5})
    report = localize(t, 7, oracle)
    assert report.committed_states[0] == "1110111"
    assert report.committed_states[-1] == "1111001"
    for bits in report.committed_states:
        assert validate_operating_state(t, states_from_string(bits, t)).ok


def test_isolation_plan_ct8():
    t = ct8()
    plan = isolate_dg_islands(t, t.normal_states())
    assert list(plan.ops) == [(CLOSE, 4), (OPEN, 5), (OPEN, 6)]
    assert len(plan.islands) == 1
    island = plan.islands[0]
    assert island.nodes == {6}
    assert island.opened == (5, 6)
    assert island.closed_ties == (4,)
    assert states_to_string(plan.states_after) == "1111001"
    assert list(restore_island_ops(island)) == [(CLOSE, 5), (CLOSE, 6), (OPEN, 4)]


def test_isolation_noop_without_dg():
    spec = {
        "nodes": [
            {"id": 1, "kind": "source"},
            {"id": 2, "kind": "load"},
        ],
        "edges": [{"id": 1, "kind": "breaker", "from": 1, "to": 2}],
    }
    t = build_topology(spec)
    plan = isolate_dg_islands(t, t.normal_states())
    assert plan.ops == ()
    assert plan.islands == ()


def test_isolation_infeasible_without_tie():
    spec = {
        "nodes": [
            {"id": 1, "kind": "source"},
            {"id": 2, "kind": "load"},
            {"id": 3, "kind": "load", "dg": True},
            {"id": 4, "kind": "load"},
        ],
        "edges": [
            {"id": 1, "kind": "breaker", "from": 1, "to": 2},
            {"id": 2, "kind": "sectionalizer", "from": 2, "to": 3},
            {"id": 3, "kind": "sectionalizer", "from": 3, "to": 4},
        ],
    }
    t = build_topology(spec)
    with pytest.raises(InfeasibleIsolationError):
        isolate_dg_islands(t, t.normal_states())


def test_contradictory_oracle_raises():
    # Feeder 2 alarms on the operator's board, then every subsequent read
    # anywhere comes back clear: the alarm has no possible owner.
    t = ct8()
    normal = states_to_string(t.normal_states())

    def lying_oracle(states):
        key = states_to_string(states)
        return {
            "FRTU_1": False,
            "FRTU_2": key == normal,
        }

    # Without the DG there is no island to hide in, so exonerations must
    # eventually empty the alarm's coverage.
    spec = {
        "nodes": [
            {"id": 1, "kind": "source"},
            {"id": 2, "kind": "load"},
            {"id": 3, "kind": "load"},
            {"id": 4, "kind": "load"},
            {"id": 5, "kind": "load"},
            {"id": 6, "kind": "load"},
            {"id": 7, "kind": "load"},
            {"id": 8, "kind": "source"},
        ],
        "edges": [
            {"id": 1, "kind": "breaker", "from": 1, "to": 2, "frtu": "FRTU_1"},
            {"id": 2, "kind": "sectionalizer", "from": 2, "to": 3},
            {"id": 3, "kind": "sectionalizer", "from": 3, "to": 4},
            {"id": 4, "kind": "tie", "from": 3, "to": 5},
            {"id": 5, "kind": "sectionalizer", "from": 5, "to": 6},
            {"id": 6, "kind": "sectionalizer", "from": 6, "to": 7},
            {"id": 7, "kind": "breaker", "from": 7, "to": 8, "frtu": "FRTU_2"},
        ],
    }
    flat = build_topology(spec)
    with pytest.raises(OracleInconsistentError):
        localize(flat, 7, lying_oracle)


def test_island_at_tie_endpoint_restores_to_unblock():
    # DG sits exactly where the tie lands, so isolating it freezes the
    # only reconfiguration path; the planner must fold the island back
    # before it can transfer load and split the suspects.
    spec = {
        "nodes": [
            {"id": 1, "kind": "source"},
            {"id": 2, "kind": "load"},
            {"id": 3, "kind": "load"},
            {"id": 4, "kind": "load", "dg": True},
            {"id": 5, "kind": "load"},
            {"id": 6, "kind": "load"},
            {"id": 7, "kind": "source"},
        ],
        "edges": [
            {"id": 1, "kind": "breaker", "from": 1, "to": 2, "frtu": "FRTU_1"},
            {"id": 2, "kind": "sectionalizer", "from": 2, "to": 3},
            {"id": 3, "kind": "tie", "from": 3, "to": 4},
            {"id": 4, "kind": "sectionalizer", "from": 4, "to": 5},
            {"id": 5, "kind": "sectionalizer", "from": 5, "to": 6},
            {"id": 6, "kind": "breaker", "from": 6, "to": 7, "frtu": "FRTU_2"},
        ],
    }
    t = build_topology(spec)
    meters = [
        CustomerMeter(
            meter_id=f"M-{n:02d}", node=n, base_load_kwh=10.0,
            tamper=Tamper(TamperKind.SCALE, 0.0) if n == 5 else None)
        for n in (2, 3, 4, 5, 6)
    ]
    oracle = SimulationOracle(t, meters, seed=3, threshold=0.02)
    report = localize(t, 6, oracle)
    assert list(report.final_suspects) == [5]
    assert not report.irreducible
    assert any(i.restored for i in report.islands)
    for bits in report.committed_states:
        assert validate_operating_state(t, states_from_string(bits, t)).ok


def states_read(report, initial):
    """Each distinct switch state at which the report took a reading: the
    starting board, then the state after each check's step."""
    bits = list(initial)
    after = {0: initial}
    for action in report.actions:
        bits[action.edge - 1] = "1" if action.action == CLOSE else "0"
        after[action.step] = "".join(bits)
    return {initial} | {after[check.after_step] for check in report.checks}


@pytest.mark.parametrize("case", [{5}, {6}, {7}, {5, 7}] + list(range(12)), ids=str)
def test_oracle_asked_once_per_state_read(case):
    # The planner keeps each state's reply on its visit, so a state where
    # it reads several FRTUs, or that it lands on twice, is asked about once.
    if isinstance(case, set):
        t, oracle = ct8_oracle(case)
        alarm_edge = 7
    else:
        ep = make_episode(case)
        t, oracle, alarm_edge = ep.topology, ep.oracle(), ep.alarm_edge
    asked = []

    def counting(states):
        asked.append(states_to_string(states))
        return oracle(states)

    report = localize(t, alarm_edge, counting)
    assert sorted(asked) == sorted(states_read(report, states_to_string(t.normal_states())))


def _budget(report, initial_suspects, n_islands):
    spent = len(report.checks)
    allowed = n_islands + math.ceil(math.log2(max(len(initial_suspects), 2))) + 2
    return spent, allowed


@pytest.mark.parametrize("seed", range(60))
def test_fuzzed_episodes(seed):
    ep = make_episode(seed)
    report = localize(ep.topology, ep.alarm_edge, ep.oracle())
    assert list(report.final_suspects) == [ep.tampered_node], (
        f"seed {seed}: expected {{{ep.tampered_node}}}, "
        f"got {list(report.final_suspects)}")
    assert not report.irreducible
    assert report.constraint_violations == ()
    for bits in report.committed_states:
        result = validate_operating_state(
            ep.topology, states_from_string(bits, ep.topology))
        assert result.ok, f"seed {seed}: state {bits} violates {result.violations}"
    spent, allowed = _budget(
        report, report.suspect_history[0], len(report.islands))
    assert spent <= allowed, f"seed {seed}: {spent} checks > budget {allowed}"


def test_oracle_reply_missing_frtu_on_initial_sweep():
    t, oracle = ct8_oracle({5})

    def partial(states):
        reply = dict(oracle(states))
        del reply["FRTU_1"]
        return reply

    with pytest.raises(OracleInconsistentError, match="FRTU_1"):
        localize(t, 7, partial)


def test_oracle_reply_missing_frtu_after_first_state():
    # The operator's board shows every FRTU; once switching starts the
    # adapter stops reporting FRTU_1, which the planner reads next.
    t, oracle = ct8_oracle({5})
    normal = states_to_string(t.normal_states())

    def flaky(states):
        reply = dict(oracle(states))
        if states_to_string(states) != normal:
            del reply["FRTU_1"]
        return reply

    with pytest.raises(OracleInconsistentError, match="FRTU_1"):
        localize(t, 7, flaky)


CONTRADICTIONS = {
    "alarms but every covered node is exonerated": "exonerated alarm",
    "has no candidate left": "emptied alarm",
    "reads clear while covering tampered nodes": "clear over tampered",
}


def cov(*nodes):
    return frozenset(nodes)


def test_decode_clear_reading_cleans_its_coverage():
    log = [("A", cov(1, 2, 3), True), ("B", cov(1, 2), False)]
    assert decode(log, set()) == [("A", cov(3))]


def test_decode_drops_an_alarm_covering_a_tampered_node():
    log = [("A", cov(1, 2), True), ("B", cov(3, 4), True)]
    assert decode(log, {2}) == [("B", cov(3, 4))]


def test_decode_returns_open_alarms_oldest_first_with_their_suspects():
    log = [("B", cov(4, 5, 6), True), ("A", cov(1, 2, 3), True),
           ("C", cov(2, 6), False), ("B", cov(4, 5), True)]
    assert decode(log, set()) == [("B", cov(4, 5)), ("A", cov(1, 3)), ("B", cov(4, 5))]


def test_decode_names_an_alarm_over_clean_nodes():
    log = [("A", cov(1, 2), False), ("B", cov(3), False), ("C", cov(1, 3), True),
           ("D", cov(2), True)]
    with pytest.raises(OracleInconsistentError,
                       match="^C alarms but every covered node is exonerated$"):
        decode(log, set())


def test_decode_names_a_clear_reading_over_a_tampered_node():
    log = [("A", cov(1, 2), True), ("B", cov(2, 3), False), ("C", cov(1), False)]
    with pytest.raises(OracleInconsistentError,
                       match=r"^B reads clear while covering tampered nodes \[2\]$"):
        decode(log, {2})


def test_decode_keeps_an_alarm_emptied_by_a_later_clear_reading():
    # Only a reading that comes after every clear one over its coverage is
    # a contradiction; an alarm emptied later is left for the caller.
    log = [("A", cov(1, 2), True), ("B", cov(1, 2, 3), False)]
    assert decode(log, set()) == [("A", cov())]


def assert_resolving_drops_alarms(log, tampered):
    """Resolve each suspect of ``decode(log, tampered)`` in turn and check
    the open alarms lose exactly those that suspect it; returns how many."""
    open_alarms = decode(log, tampered)
    suspects = set().union(*(nodes for _, nodes in open_alarms))
    for node in suspects:
        assert decode(log, set(tampered) | {node}) == [
            (frtu, nodes) for frtu, nodes in open_alarms if node not in nodes], (log, node)
    return len(suspects)


def test_resolving_a_suspect_drops_exactly_the_alarms_that_suspect_it():
    # ``_Planner.resolve`` records the suspects left without decoding: a
    # suspect lies under no clear reading, so resolving it cleans nothing
    # more and closes just the alarms it is a suspect of.
    log = [("A", cov(1, 2, 3), True), ("B", cov(3, 4), True), ("C", cov(1), False),
           ("D", cov(4, 5, 6), True), ("E", cov(6), False)]
    assert decode(log, set()) == [("A", cov(2, 3)), ("B", cov(3, 4)), ("D", cov(4, 5))]
    assert assert_resolving_drops_alarms(log, set()) == 4
    assert assert_resolving_drops_alarms(log, {2}) == 3
    # A clean node is no suspect, and resolving it contradicts the log.
    with pytest.raises(OracleInconsistentError, match="^C reads clear"):
        decode(log, {1})


def localize_recording_decodes(monkeypatch, topo, alarm_edge, oracle):
    """``localize``'s report and each ``planner.decode`` call's (log, resolved nodes)."""
    calls = []

    def recording(readings, tampered):
        calls.append((tuple(readings), frozenset(tampered)))
        return decode(readings, tampered)

    monkeypatch.setattr(planner, "decode", recording)
    return localize(topo, alarm_edge, oracle), calls


def chain_cases():
    """A 122-node two-feeder chain with one dead meter, at four positions."""
    topo = two_feeder_chain(60)
    for dead, alarm_edge in ((10, 1), (45, 1), (70, 121), (115, 121)):
        meters = [CustomerMeter(f"M-{n:03d}", n, 1.0,
                                Tamper(TamperKind.SCALE, 0.0) if n == dead else None)
                  for n in sorted(topo.load_ids)]
        yield topo, alarm_edge, SimulationOracle(topo, meters, 11, threshold=0.1 / len(meters))


def test_log_is_decoded_once_per_batch_of_reads(monkeypatch):
    # One decode for the board, then one after each batch of reads: a
    # check, a resolved node's sweep, a fold-back. A move reads nothing.
    # Decoding per snapshot and per request for the next alarm made about
    # three times as many.
    for case, (topo, alarm_edge, oracle) in enumerate(
            [make_mesh_case(seed) for seed in range(100)] + list(chain_cases())):
        report, decoded = localize_recording_decodes(monkeypatch, topo, alarm_edge, oracle)
        resolved = sum(line.startswith("resolved: ") for line in report.log)
        restored = sum(island.restored for island in report.islands)
        assert len(decoded) <= len(report.checks) + resolved + restored + 1, case


def test_resolving_drops_alarms_on_logs_from_fuzzed_runs(monkeypatch):
    cases = ([make_mesh_case(seed) for seed in range(40)]
             + [(ep.topology, ep.alarm_edge, ep.oracle()) for ep in map(make_episode, range(40))])
    suspects = 0
    for topo, alarm_edge, oracle in cases:
        _, decoded = localize_recording_decodes(monkeypatch, topo, alarm_edge, oracle)
        for log, tampered in decoded:
            suspects += assert_resolving_drops_alarms(log, tampered)
    assert suspects > 1000


# SHA-256 of the 600 lying-oracle outcomes below, newline-joined: each the
# report's sorted JSON or the contradiction as "Type: message".
LYING_DIGEST = "f1d514d616ce81ac606b4e39f08de17d169bea8c87ef985b6d0d2d9a595758dc"


def test_lying_oracle_ends_in_a_report_or_a_named_contradiction():
    # A seeded coin alarms one read in three, on top of the requested
    # feeder's alarm on the operator's board. Every run must either end
    # in a report or name the contradiction it hit, and each of the three
    # contradictions must turn up somewhere in the set. The digest pins
    # every outcome, so which contradiction wins cannot change unnoticed.
    seen = {"report": 0} | {kind: 0 for kind in CONTRADICTIONS.values()}
    outcomes = []
    for seed in range(600):
        topo = make_mesh(seed)
        breakers = sorted(e.id for e in topo.edges if e.kind is EdgeKind.BREAKER)
        alarm_edge = breakers[seed % len(breakers)]
        alarm_frtu = topo.frtu_map[alarm_edge]
        normal = states_to_string(topo.normal_states())

        def oracle(states, seed=seed, topo=topo, alarm_frtu=alarm_frtu, normal=normal):
            key = states_to_string(states)
            return {f: (key == normal and f == alarm_frtu)
                    or zlib.crc32(f"{seed}|{key}|{f}".encode()) % 3 == 0
                    for f in topo.frtu_edges}

        try:
            report = localize(topo, alarm_edge, oracle)
        except OracleInconsistentError as exc:
            kinds = [k for text, k in CONTRADICTIONS.items() if text in str(exc)]
            assert len(kinds) == 1, f"seed {seed}: {exc}"
            seen[kinds[0]] += 1
            outcomes.append(f"{type(exc).__name__}: {exc}")
        else:
            seen["report"] += 1
            outcomes.append(json.dumps(report.to_dict(), sort_keys=True))
    assert all(seen.values()), seen
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == LYING_DIGEST


@pytest.mark.parametrize("bits", ["1111111", "0000000"])
def test_invalid_starting_state_is_refused(bits):
    # All closed loops both feeders together; all open leaves every load dark.
    t, oracle = ct8_oracle({5})
    with pytest.raises(InfeasiblePlanError) as info:
        localize(t, 7, oracle, initial_states=states_from_string(bits, t))
    assert str(info.value).startswith("starting switch state violates operating rules")
