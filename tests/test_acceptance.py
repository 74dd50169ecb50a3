"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; a failing criterion shows up as an ordinary pytest failure.
"""

import json
import math
from collections import deque
from pathlib import Path

import numpy as np

from gridsleuth.cli import main
from gridsleuth.energize import energized_from_incidence, energized_nodes, suspect_nodes
from gridsleuth.metering import CustomerMeter, Tamper, TamperKind, detect, \
    feeder_discrepancy, simulate_interval
from gridsleuth.networks import ct8
from gridsleuth.planner import localize
from gridsleuth.scoring import alarm_probability, anomaly_score
from gridsleuth.topology import (
    adjacency_from_incidence,
    build_topology,
    states_from_string,
    validate_operating_state,
)

from episode_fuzz import make_episode

REPO = Path(__file__).parent.parent
SCENARIO_DIR = REPO / "scenarios"


def _ok(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS - {detail}")


def test_criterion_1_reference_grid_matrices():
    topo = ct8()
    incidence = topo.incidence()
    assert incidence.shape == (8, 7)
    assert incidence.sum(axis=0).tolist() == [2] * 7
    assert int(incidence.sum()) == 14

    adjacency = adjacency_from_incidence(
        incidence, np.ones(topo.n_edges, dtype=np.uint8))
    assert adjacency.shape == (8, 8)
    assert np.array_equal(adjacency, adjacency.T)
    assert int(np.trace(adjacency)) == 0
    assert int(adjacency.sum()) == 14
    _ok(1, "incidence 8x7 (14 entries, column sums 2); "
           "all-closed adjacency symmetric, zero-diagonal, 14 nonzeros")


def test_criterion_2_reference_energization_vectors():
    topo = ct8()
    assert topo.source_vector().tolist() == [1, 0, 0, 0, 0, 0, 0, 1]

    normal = energized_nodes(topo, states_from_string("1110111", topo))
    assert normal.tolist() == [1] * 8

    islanded = energized_nodes(topo, states_from_string("1111001", topo))
    assert islanded.tolist() == [1, 1, 1, 1, 1, 0, 1, 1]
    _ok(2, "normal state energizes every node; island state darkens only node 6")


def test_criterion_3_case_study_walks(tmp_path):
    golden = [(1, "close", 4), (2, "open", 5), (3, "open", 6)]
    for node in (5, 6, 7):
        out = tmp_path / f"node{node}"
        code = main([
            "localize", "run", str(SCENARIO_DIR / f"tamper_node{node}.json"),
            "--check", "--out-dir", str(out),
        ])
        assert code == 0, f"localize --check failed for tampered node {node}"
        report = json.loads((out / "localization_report.json").read_text())
        assert report["final_suspects"] == [node]
        actions = [(a["step"], a["action"], a["edge"]) for a in report["actions"]]
        assert actions == golden
        assert len(report["checks"]) <= 2
    _ok(3, "tampered nodes 5/6/7 each localized exactly via close e4, open e5, "
           "open e6 and at most 2 checks after isolation")


def test_criterion_4_initial_suspect_set():
    topo = ct8()
    suspects = suspect_nodes(topo, topo.normal_states(), 7)
    assert suspects == frozenset({5, 6, 7})
    _ok(4, "opening the alarmed breaker (edge 7) marks exactly {5, 6, 7}")


def _bfs_energized(n: int, edges: list[tuple[int, int]],
                   states: np.ndarray, sources: np.ndarray) -> np.ndarray:
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for (u, v), closed in zip(edges, states):
        if closed:
            neighbours[u].append(v)
            neighbours[v].append(u)
    seen = [False] * n
    queue = deque(i for i in range(n) if sources[i])
    for i in queue:
        seen[i] = True
    while queue:
        u = queue.popleft()
        for v in neighbours[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return np.array([1 if s else 0 for s in seen], dtype=np.uint8)


def test_criterion_5_kernel_matches_bfs_on_fuzzed_networks():
    rng = np.random.default_rng(20260818)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 33))
        max_edges = n * (n - 1) // 2
        m = int(rng.integers(0, min(3 * n, max_edges) + 1))
        pairs: set[tuple[int, int]] = set()
        while len(pairs) < m:
            u, v = rng.integers(0, n, size=2)
            if u != v:
                pairs.add((min(int(u), int(v)), max(int(u), int(v))))
        edges = sorted(pairs)
        incidence = np.zeros((n, len(edges)), dtype=np.uint8)
        for j, (u, v) in enumerate(edges):
            incidence[u, j] = 1
            incidence[v, j] = 1
        states = rng.integers(0, 2, size=len(edges)).astype(np.uint8)
        sources = rng.integers(0, 2, size=n).astype(np.uint8)
        vf = energized_from_incidence(incidence, states, sources)
        if not np.array_equal(vf, _bfs_energized(n, edges, states, sources)):
            mismatches += 1
    assert mismatches == 0
    _ok(5, "incidence energization agreed with BFS on 1000 fuzzed networks")


def test_criterion_6_detection_threshold_grid():
    spec = {
        "nodes": [
            {"id": 1, "kind": "source"},
            {"id": 2, "kind": "load"},
            {"id": 3, "kind": "load"},
        ],
        "edges": [
            {"id": 1, "kind": "breaker", "from": 1, "to": 2, "frtu": "FRTU_1"},
            {"id": 2, "kind": "sectionalizer", "from": 2, "to": 3},
        ],
    }
    topo = build_topology(spec)
    states = topo.normal_states()
    wrong = 0
    boundary_alarms = 0
    for i in range(21):          # tampered fraction f = i/20
        for j in range(21):      # scale factor alpha = j/20
            meters = [
                CustomerMeter("M-T", 2, float(i),
                              Tamper(TamperKind.SCALE, j / 20)),
                CustomerMeter("M-C", 3, float(20 - i), None),
            ]
            interval = simulate_interval(topo, states, meters, seed=1)
            alarmed = detect(feeder_discrepancy(interval, "FRTU_1"), 0.2)
            expected = i * (20 - j) > 80
            if alarmed != expected:
                wrong += 1
            if i * (20 - j) == 80 and alarmed:
                boundary_alarms += 1
    assert wrong == 0
    assert boundary_alarms == 0
    _ok(6, "441-point tamper grid matched f*(1-alpha) > 0.20 exactly; "
           "boundary points stayed silent")


def test_criterion_7_score_formula_properties():
    for n_total in range(0, 61):
        for n_anom in range(0, n_total + 1):
            value = anomaly_score(n_anom, n_total).value
            assert 0.0 <= value <= 1.0

    rng = np.random.default_rng(7321)
    worst = 0.0
    for _ in range(10_000):
        qs = [float(q) for q in rng.random(int(rng.integers(0, 9)))]
        got = alarm_probability(qs).value
        expected = 1.0 - math.prod(1.0 - q for q in qs)
        worst = max(worst, abs(got - expected))

        if qs:
            assert abs(alarm_probability([qs[0]]).value - qs[0]) < 1e-12
            raised = [min(1.0, qs[0] + 0.25)] + qs[1:]
            assert alarm_probability(raised).value >= got - 1e-12
            assert abs(alarm_probability(qs[::-1]).value - got) < 1e-12
    assert worst < 1e-12
    _ok(7, "anomaly score stayed in [0,1]; combined alarm probability matched "
           "the complement product within 1e-12 on 10000 lists "
           "(monotone, order-free, identity on singletons)")


def test_criterion_8_no_committed_state_darkens_a_load():
    violations = 0
    episodes = 0
    for seed in range(500):
        ep = make_episode(seed)
        report = localize(ep.topology, ep.alarm_edge, ep.oracle())
        episodes += 1
        assert not report.constraint_violations
        for bits in report.committed_states:
            result = validate_operating_state(
                ep.topology, states_from_string(bits, ep.topology))
            violations += len(result.violations)
    assert episodes == 500
    assert violations == 0
    _ok(8, "500 fuzzed episodes committed only states that keep every "
           "non-island load energized")


def test_criterion_9_scope_note():
    # There is no published quantitative baseline to reproduce beyond the
    # worked example, so the gate is criteria 1-8 plus the documented
    # benchmark; this criterion just pins that scope.
    assert (REPO / "README.md").is_file()
    assert (REPO / "perfbench" / "run.py").is_file()
    assert (REPO / "BENCHMARK.json").is_file()
    _ok(9, "no external quantitative baseline exists; gate is criteria 1-8 "
           "(README, perfbench/run.py and BENCHMARK.json present)")
