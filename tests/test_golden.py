"""Byte-for-byte golden outputs of the CLI on the five shipped scenarios.

For each scenario under ``scenarios/`` this runs ``sim run``,
``localize run`` and one ``score`` per ground-truth node, and compares
every file they write with the copy under ``tests/golden/<scenario>/``.
A change that is meant to alter these outputs regenerates them with

    python tests/test_golden.py

and explains the diff.
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = ("multi_tamper_5_7", "no_tamper", "tamper_node5", "tamper_node6", "tamper_node7")


def write_outputs(name: str, out: Path) -> None:
    """Run the three CLI steps for one scenario, writing into ``out``."""
    from gridsleuth.cli import main
    from gridsleuth.metering import load_scenario

    scenario = SCENARIOS / f"{name}.json"
    out.mkdir(parents=True, exist_ok=True)
    history = out / "history.csv"
    assert main(["sim", "run", str(scenario), "--out", str(history)]) == 0
    assert main(["localize", "run", str(scenario), "--out-dir", str(out)]) == 0
    for node in load_scenario(scenario).ground_truth:
        assert main(["score", str(scenario), "--history", str(history),
                     "--node", str(node), "--out", str(out / f"scores_node{node}.csv")]) == 0


@pytest.mark.parametrize("name", NAMES)
def test_cli_outputs_match_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("GRIDSLEUTH_SEED", raising=False)
    write_outputs(name, tmp_path)
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for fname in expected:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), (
            f"{name}/{fname} differs from the golden copy")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("GRIDSLEUTH_SEED", None)
    for scenario_name in NAMES:
        write_outputs(scenario_name, GOLDEN / scenario_name)
    print(f"wrote golden outputs for {len(NAMES)} scenarios to {GOLDEN}")
