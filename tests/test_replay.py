"""Each report's verdict follows from its own readings by the DD rule.

``replay`` rebuilds the reading log from a report and its topology, with
no planner code, and must give ``final_suspects`` on every fuzz episode,
the benchmark's inputs at seed 401 and the golden reports. Soundness, that
no alarmed node is left out of the verdict without a clear reading
(``presumed_clean``), is not asserted: the DD rule presumes such nodes
clean, and today's planner leaves some.
"""

import ast
import json
from pathlib import Path

import report_hashes
from episode_fuzz import make_episode, make_mesh_case
from gridsleuth.errors import GridSleuthError
from gridsleuth.metering import load_scenario
from gridsleuth.planner import localize
from replay import replay

TESTS = Path(__file__).resolve().parent
GOLDEN_NAMES = ("multi_tamper_5_7", "no_tamper", "tamper_node5", "tamper_node6", "tamper_node7")


def golden(name):
    """(report dict, topology) of one golden scenario."""
    report = json.loads((TESTS / "golden" / name / "localization_report.json").read_text())
    return report, load_scenario(TESTS.parent / "scenarios" / f"{name}.json").topology


def assert_replay_agrees(cases) -> int:
    """Replay each (name, topology, report or error); return the reports replayed."""
    replayed = 0
    for name, topo, report in cases:
        if isinstance(report, GridSleuthError):
            continue
        doc = report.to_dict()
        assert replay(doc, topo) == tuple(doc["final_suspects"]), name
        replayed += 1
    return replayed


def localized(topo, alarm_edge, oracle):
    try:
        return localize(topo, alarm_edge, oracle)
    except GridSleuthError as exc:
        return exc


def test_replay_agrees_on_chain_fuzz_episodes():
    def cases():
        for seed in range(300):
            ep = make_episode(seed)
            yield f"make_episode({seed})", ep.topology, localized(
                ep.topology, ep.alarm_edge, ep.oracle())
    assert assert_replay_agrees(cases()) == 300


def test_replay_agrees_on_mesh_fuzz_cases():
    def cases():
        for seed in range(200):
            topo, alarm_edge, oracle = make_mesh_case(seed)
            yield f"make_mesh_case({seed})", topo, localized(topo, alarm_edge, oracle)
    assert assert_replay_agrees(cases()) == 200


def test_replay_agrees_on_the_benchmark_inputs_at_seed_401():
    cases = ((prep.episode.name, prep.topology, result)
             for prep, result in report_hashes.results(range(401, 402)))
    assert assert_replay_agrees(cases) == 204


def test_replay_agrees_on_the_golden_reports():
    for name in GOLDEN_NAMES:
        report, topo = golden(name)
        assert replay(report, topo) == tuple(report["final_suspects"]), name
    assert replay(*golden("no_tamper")) == ()


def test_replay_reads_the_verdict_from_the_checks():
    # Without its checks the log holds only the board's alarm on FRTU_2,
    # whose coverage [5, 6, 7] names no single node.
    report, topo = golden("multi_tamper_5_7")
    assert replay(report, topo) == (5, 7)
    assert replay(dict(report, checks=[]), topo) == ()
    assert replay(dict(report, checks=[], irreducible=True), topo) == (5, 6, 7)


def test_replay_imports_no_planner_code():
    tree = ast.parse((TESTS / "replay.py").read_text())
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    assert imported and not any("planner" in name for name in imported), imported
