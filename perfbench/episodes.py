"""The three workloads: inputs, one episode, and its correctness gate.

A workload builds its inputs once per set-up (``prepare``), runs one
episode per call (``run``), and judges that episode against the ground
truth afterwards (``judge``), outside the timed region. All calls into
gridsleuth go through module attributes, so the traced run's wrappers see
them. Only public gridsleuth modules are imported.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import gridsleuth as gs
from gridsleuth import cli, networks, topology

import inputs

MESH_EPISODES = 200
DETECT_EPISODES = 4
DETECT_INTERVALS = 96


@dataclass(frozen=True)
class Outcome:
    """What the gate concluded about one episode."""

    failure: str | None = None
    checks: int | None = None
    actions: int | None = None
    verdict_size: int | None = None
    truth_size: int = 1


@dataclass(frozen=True)
class Prepared:
    episode: inputs.EpisodeInput
    topology: gs.Topology
    meters: tuple
    files: dict | None = None


def customer_meters(episode: inputs.EpisodeInput) -> tuple:
    return tuple(
        gs.CustomerMeter(m.meter_id, m.node, m.base_load_kwh,
                         gs.Tamper.from_dict(m.tamper) if m.tamper else None)
        for m in episode.meters)


def judge_localization(prep: Prepared, verdict, committed, checks: int,
                       actions: int) -> Outcome:
    """Re-validate every committed state, then compare with the truth.

    An invalid committed state or a verdict that misses a tampered node is
    a failure; a verdict larger than the truth is not, it only counts
    toward the verdict size.
    """
    topo = prep.topology
    for bits in committed:
        if not topology.validate_operating_state(
                topo, topology.states_from_string(bits, topo)).ok:
            return Outcome("invalid_state", checks, actions)
    truth = prep.episode.truth
    if not set(truth) <= set(verdict):
        return Outcome("missed_tamper", checks, actions)
    return Outcome(None, checks, actions, len(verdict), len(truth))


class LocalizeWorkload:
    """Closed-loop ``localize`` calls against a simulation oracle."""

    def __init__(self, make_inputs) -> None:
        self.make_inputs = make_inputs

    def prepare(self, seed: int) -> list[Prepared]:
        return [Prepared(e, gs.build_topology(e.spec), customer_meters(e))
                for e in self.make_inputs(seed)]

    def warm_up(self, seed: int) -> None:
        """One small localization, so first-call costs land in set-up."""
        topo = networks.ct8()
        meters = [gs.CustomerMeter(f"M-{n}", n, 1.0,
                                   gs.Tamper(gs.TamperKind.SCALE, 0.0) if n == 5 else None)
                  for n in range(2, 8)]
        gs.localize(topo, 7, gs.SimulationOracle(topo, meters, 1, threshold=0.05))

    def run(self, prep: Prepared):
        e = prep.episode
        oracle = gs.SimulationOracle(prep.topology, prep.meters, e.sim_seed,
                                     noise=inputs.NOISE, threshold=e.threshold)
        try:
            return gs.localize(prep.topology, e.alarm_edge, oracle)
        except Exception as exc:  # any raised error is a failed episode
            return exc

    def judge(self, prep: Prepared, result) -> Outcome:
        if isinstance(result, Exception):
            return Outcome(f"error:{type(result).__name__}")
        return judge_localization(prep, result.final_suspects, result.committed_states,
                                  len(result.checks), len(result.actions))

    def close(self) -> None:
        pass


class DetectRankWorkload:
    """``sim run``, ``localize run`` and ``score`` through ``cli.main``.

    Scenario files are written at set-up into a scratch directory inside
    the benchmark's own output directory and removed by ``close``.
    """

    def __init__(self, work_root: Path, count: int = DETECT_EPISODES) -> None:
        self.count = count
        work_root.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="detect-", dir=work_root))

    def prepare(self, seed: int) -> list[Prepared]:
        return [self._write(e, DETECT_INTERVALS)
                for e in inputs.detect_episodes(seed, self.count)]

    def warm_up(self, seed: int) -> None:
        """One tiny pass through all three commands, so first-call costs
        (argparse, csv, json) land in set-up."""
        warm = inputs.detect_episodes(seed, 1, loads_per_feeder=2, meters_per_node=2)[0]
        self.run(self._write(warm, 4, "warm-up"))

    def _write(self, e: inputs.EpisodeInput, intervals: int,
               dirname: str | None = None) -> Prepared:
        d = self.work / (dirname or e.name)
        d.mkdir(exist_ok=True)
        (d / "topology.json").write_text(json.dumps(e.spec))
        scenario = d / "scenario.json"
        scenario.write_text(json.dumps(
            inputs.scenario_document(e, "topology.json", intervals)))
        files = {"dir": d, "scenario": str(scenario), "history": str(d / "history.csv")}
        return Prepared(e, gs.build_topology(e.spec), (), files)

    def run(self, prep: Prepared) -> dict:
        """Exit code of each CLI step, plus the FRTUs detection alarmed."""
        steps: dict = {}
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                self._steps(prep, steps, out)
            except Exception as exc:  # any raised error is a failed episode
                steps["error"] = type(exc).__name__
        return steps

    @staticmethod
    def _steps(prep: Prepared, steps: dict, out: io.StringIO) -> None:
        f = prep.files
        steps["sim"] = cli.main(["sim", "run", f["scenario"], "--out", f["history"]])
        steps["alarms"] = alarmed = _alarmed_frtus(out.getvalue())
        if steps["sim"] != 0 or not alarmed:
            return
        edges = {e["frtu"]: e["id"] for e in prep.episode.spec["edges"]
                 if e["kind"] == "breaker"}
        steps["localize"] = cli.main([
            "localize", "run", f["scenario"], "--alarm-edge", str(edges[alarmed[0]]),
            "--out-dir", str(f["dir"])])
        for node in prep.episode.truth:
            steps[f"score{node}"] = cli.main([
                "score", f["scenario"], "--history", f["history"], "--node", str(node),
                "--out", str(f["dir"] / f"scores{node}.csv")])

    def judge(self, prep: Prepared, steps) -> Outcome:
        e = prep.episode
        if "error" in steps:
            return Outcome(f"error:{steps['error']}")
        if steps["sim"] != 0:
            return Outcome(f"exit{steps['sim']}:sim")
        want = {x["frtu"] for x in e.spec["edges"] if x["id"] == e.alarm_edge}
        if not want <= set(steps["alarms"]):
            return Outcome("missed_alarm")
        if steps["localize"] != 0:
            return Outcome(f"exit{steps['localize']}:localize")
        report = json.loads((prep.files["dir"] / "localization_report.json").read_text())
        outcome = judge_localization(prep, report["final_suspects"],
                                     report["committed_states"], len(report["checks"]),
                                     len(report["actions"]))
        if outcome.failure:
            return outcome
        for node in e.truth:
            if steps[f"score{node}"] != 0:
                return Outcome(f"exit{steps[f'score{node}']}:score")
            with open(prep.files["dir"] / f"scores{node}.csv", newline="") as fh:
                top = next(csv.DictReader(fh), {}).get("meter_id")
            if top not in e.tampered_meters:
                return Outcome("misranked", outcome.checks, outcome.actions)
        return outcome

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _alarmed_frtus(stdout: str) -> list[str]:
    for line in stdout.splitlines():
        if line.startswith("alarms at interval 0:"):
            names = line.split(":", 1)[1].strip()
            return [] if names == "none" else [n.strip() for n in names.split(",")]
    return []


def workload(name: str, work_root: Path):
    # The CLI would silently swap every scenario seed for this one.
    os.environ.pop("GRIDSLEUTH_SEED", None)
    if name == "mesh_localize":
        return LocalizeWorkload(lambda seed: inputs.mesh_episodes(seed, MESH_EPISODES))
    if name == "chain_localize":
        return LocalizeWorkload(inputs.chain_episodes)
    if name == "detect_rank":
        return DetectRankWorkload(work_root)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mesh_localize", "chain_localize", "detect_rank")
