"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gridsleuth as gs  # noqa: E402
from gridsleuth import planner  # noqa: E402

import episodes  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("make", [
    lambda seed: inputs.mesh_episodes(seed, 12),
    inputs.chain_episodes,
    lambda seed: inputs.detect_episodes(seed, 2),
])
def test_seed_regenerates_identical_inputs(make):
    first, again, other = make(5), make(5), make(6)
    assert ([json.dumps(e.to_dict(), sort_keys=True) for e in first]
            == [json.dumps(e.to_dict(), sort_keys=True) for e in again])
    assert inputs.fingerprint(first) == inputs.fingerprint(again)
    assert inputs.fingerprint(first) != inputs.fingerprint(other)


def test_detect_scenario_files_are_byte_identical(tmp_path):
    blobs = []
    for run in ("a", "b"):
        work = episodes.DetectRankWorkload(tmp_path / run, count=2)
        try:
            prepared = work.prepare(9)
            blobs.append([Path(p.files["scenario"]).read_bytes() for p in prepared])
        finally:
            work.close()
    assert blobs[0] == blobs[1]


def test_generated_networks_are_valid_and_alarm():
    for e in inputs.mesh_episodes(3, 8):
        topo = gs.build_topology(e.spec)
        oracle = gs.SimulationOracle(topo, episodes.customer_meters(e), e.sim_seed,
                                     noise=inputs.NOISE, threshold=e.threshold)
        alarms = oracle(topo.normal_states())
        assert alarms[topo.frtu_map[e.alarm_edge]]


def test_self_times_sum_to_root_span():
    work = episodes.LocalizeWorkload(lambda seed: inputs.mesh_episodes(seed, 4)[:2])
    prepared = work.prepare(2)
    tracer = tracing.Tracer()
    original = planner.frtu_coverage
    with tracer.installed():
        assert planner.frtu_coverage is not original
        for prep in prepared:
            with tracer.root("episode"):
                work.run(prep)
    assert planner.frtu_coverage is original

    self_times = tracer.self_times()
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 2
    for root in roots:
        subtree, frontier = {root.id}, True
        while frontier:
            frontier = False
            for s in tracer.spans:
                if s.parent in subtree and s.id not in subtree:
                    subtree.add(s.id)
                    frontier = True
        total = sum(self_times[i] for i in subtree)
        assert total == pytest.approx(root.duration, rel=1e-9, abs=1e-12)
    names = {s.name for s in tracer.spans}
    assert {"planner.localize", "energize.energized_nodes", tracing.ORACLE,
            "metering.simulate_interval", tracing.VALIDATE} <= names

    metrics = tracing.layer_metrics(tracer, len(prepared), checks=1)
    assert metrics["planner.localize.calls"] == 1.0
    assert metrics["metering.oracle.fresh_ratio"] > 0


def test_missing_layer_function_reports_zero(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "planner",
                        tracing.LAYERS["planner"] + ("no_such_function",))
    monkeypatch.setattr(tracing, "PER_LAYER",
                        tracing.PER_LAYER + (("planner.no_such_function", "calls"),))
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    metrics = tracing.layer_metrics(tracer, episodes=1, checks=0)
    assert metrics["planner.no_such_function.calls"] == 0.0


def test_gate_flags_verdict_from_lying_oracle():
    e = inputs.chain_episodes(1, loads_per_feeder=8)[1]
    work = episodes.LocalizeWorkload(lambda seed: [e])
    prep = work.prepare(1)[0]
    liar_node = e.truth[0] + 1
    lying_meters = tuple(
        replace(m, tamper=gs.Tamper(gs.TamperKind.SCALE, 0.0) if m.node == liar_node else None)
        for m in prep.meters)
    oracle = gs.SimulationOracle(prep.topology, lying_meters, e.sim_seed,
                                 threshold=e.threshold)
    report = gs.localize(prep.topology, e.alarm_edge, oracle)
    assert report.final_suspects == (liar_node,)
    assert work.judge(prep, report).failure == "missed_tamper"
    assert work.judge(prep, work.run(prep)).failure is None


def test_gate_flags_invalid_committed_state():
    e = inputs.chain_episodes(1, loads_per_feeder=8)[0]
    work = episodes.LocalizeWorkload(lambda seed: [e])
    prep = work.prepare(1)[0]
    normal = gs.topology.states_to_string(prep.topology.normal_states())
    dark = "0" + normal[1:]  # feeder 1's breaker open, its loads unfed
    outcome = episodes.judge_localization(prep, e.truth, [normal, dark], 1, 1)
    assert outcome.failure == "invalid_state"


def test_imports_no_private_gridsleuth_module():
    for path in HERE.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
                names = []
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
                names = [a.name for a in node.names]
            else:
                if isinstance(node, ast.Attribute):
                    assert not node.attr.startswith(("_energize", "_kernel")), path
                    assert node.attr != "BACKEND", path
                continue
            for mod in mods:
                if mod.split(".")[0] == "gridsleuth":
                    assert not any(p.startswith("_") for p in mod.split(".")), path
                    assert not any(n.startswith("_") or n == "BACKEND" for n in names), path


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain_localize",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_runner():
    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    layers = {f"{n}.{s}": tracing.UNITS[s] for n, s in tracing.PER_LAYER}
    layers["trace.overhead_ratio"] = "ratio"
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers
    assert [w["name"] for w in doc["workloads"]] == list(episodes.WORKLOADS)
