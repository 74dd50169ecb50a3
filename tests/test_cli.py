"""CLI behaviour: parsing, file outputs, determinism, exit codes."""

import csv
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from gridsleuth import cli
from gridsleuth.cli import build_parser, main
from gridsleuth.energize import frtu_coverage
from gridsleuth.metering import CustomerMeter, Tamper, TamperKind, simulate_interval
from gridsleuth.networks import ct8
from gridsleuth.topology import adjacency_from_incidence, states_from_string

REPO = Path(__file__).parent.parent
SCENARIO_DIR = REPO / "scenarios"
CT8 = str(SCENARIO_DIR / "ct8.json")


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def _ct8_spec(dg: bool = True) -> dict:
    spec = json.loads(Path(CT8).read_text())
    if not dg:
        for node in spec["nodes"]:
            node.pop("dg", None)
    return spec


def _scenario(topology: str, meters: list[dict], **overrides) -> dict:
    payload = {
        "topology": topology,
        "seed": 7,
        "noise": 0.0,
        "loss_factor": 0.0,
        "threshold": 0.2,
        "intervals": 4,
        "alarm_edge": 7,
        "ground_truth": [],
        "meters": meters,
    }
    payload.update(overrides)
    return payload


def _ct8_meters(tampered: dict | None = None) -> list[dict]:
    meters = []
    for node in range(2, 8):
        m = {"meter_id": f"M-{node:02d}", "node": node, "base_load_kwh": 10.0}
        if tampered and tampered.get("node") == node:
            m["tamper"] = {"mode": tampered["mode"], "value": tampered["value"]}
        meters.append(m)
    return meters


# ----------------------------------------------------------------- parsing

def test_parser_builds_expected_namespaces():
    parser = build_parser()
    assert parser.prog == "gridsleuth"
    ns = parser.parse_args(["topo", "energize", "net.json", "--vr", "1110111"])
    assert (ns.command, ns.topo_command) == ("topo", "energize")
    assert ns.topology == "net.json"
    assert ns.vr == "1110111"
    ns = parser.parse_args(["localize", "run", "s.json", "--check", "--seed", "3"])
    assert ns.check is True
    assert ns.seed == 3
    ns = parser.parse_args(
        ["score", "s.json", "--history", "h.csv", "--node", "5"])
    assert ns.node == 5
    assert ns.deviation_threshold == pytest.approx(0.3)


def test_parser_rejects_missing_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["topo"])


# ------------------------------------------------------------- topo checks

def test_validate_normal_state_ok(capsys):
    assert main(["topo", "validate", CT8]) == 0
    out = capsys.readouterr().out
    assert "structure: ok (8 nodes, 7 edges)" in out
    assert "loop check: radial" in out
    assert "operating state: ok" in out


def test_validate_flags_loop(capsys):
    assert main(["topo", "validate", CT8, "--vr", "1111111"]) == 2
    assert "LOOP" in capsys.readouterr().out


def test_validate_flags_dark_load(capsys):
    assert main(["topo", "validate", CT8, "--vr", "1110011"]) == 2
    out = capsys.readouterr().out
    assert "dark loads: [5]" in out
    assert "violation:" in out


def test_validate_reports_island(capsys):
    assert main(["topo", "validate", CT8, "--vr", "1111001"]) == 0
    assert "dg islands: [6]" in capsys.readouterr().out


def test_energize_golden_vectors(capsys):
    assert main(["topo", "energize", CT8, "--vr", "1110111"]) == 0
    assert capsys.readouterr().out.strip() == "11111111"
    assert main(["topo", "energize", CT8, "--vr", "1111001"]) == 0
    assert capsys.readouterr().out.strip() == "11111011"


def _read_dense(path: Path) -> tuple[list[int], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = [int(c) for c in rows[0][1:]]
    matrix = np.array([[int(x) for x in row[1:]] for row in rows[1:]], dtype=np.uint8)
    return header, matrix


def _read_sparse(path: Path, shape: tuple[int, int]) -> np.ndarray:
    matrix = np.zeros(shape, dtype=np.uint8)
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            matrix[int(row["row"]) - 1, int(row["col"]) - 1] = int(row["value"])
    return matrix


def test_matrices_roundtrip(tmp_path, capsys):
    assert main(["topo", "matrices", CT8, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "incidence: 8x7, 14 entries" in out
    assert "adjacency: 8x8, 14 entries" in out

    topo = ct8()
    incidence = topo.incidence()
    cols, dense_inc = _read_dense(tmp_path / "incidence.csv")
    assert cols == [e.id for e in topo.edges]
    assert np.array_equal(dense_inc, incidence)
    assert np.array_equal(
        _read_sparse(tmp_path / "incidence_sparse.csv", incidence.shape), incidence)

    expected_adj = adjacency_from_incidence(
        incidence, np.ones(topo.n_edges, dtype=np.uint8))
    cols, dense_adj = _read_dense(tmp_path / "adjacency.csv")
    assert cols == [n.id for n in topo.nodes]
    assert np.array_equal(dense_adj, expected_adj)
    assert np.array_equal(
        _read_sparse(tmp_path / "adjacency_sparse.csv", expected_adj.shape),
        expected_adj)


def test_matrices_respect_switch_states(tmp_path):
    assert main([
        "topo", "matrices", CT8, "--vr", "1110111", "--out-dir", str(tmp_path),
    ]) == 0
    topo = ct8()
    expected = adjacency_from_incidence(topo.incidence(), topo.normal_states())
    _, dense = _read_dense(tmp_path / "adjacency.csv")
    assert np.array_equal(dense, expected)
    assert int(dense.sum()) == 12


# ------------------------------------------------------------------ README

def _readme_sessions() -> list[tuple[str, list[str]]]:
    """Each ``$ command`` of the README's console blocks, with its output lines."""
    sessions: list[tuple[str, list[str]]] = []
    readme = (REPO / "README.md").read_text()
    for block in re.findall(r"```console\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                sessions.append((line[2:], []))
            else:
                sessions[-1][1].append(line)
    return sessions


def test_readme_console_blocks_match(tmp_path, monkeypatch, capsys):
    (tmp_path / "scenarios").symlink_to(SCENARIO_DIR)
    monkeypatch.chdir(tmp_path)
    sessions = _readme_sessions()
    assert [cmd.split()[:2] for cmd, _ in sessions] == [
        ["gridsleuth", "topo"], ["gridsleuth", "topo"], ["gridsleuth", "sim"],
        ["gridsleuth", "localize"], ["gridsleuth", "score"], ["cat", "scores.csv"]]
    for cmd, expected in sessions:
        prog, *argv = shlex.split(cmd)
        if prog == "cat":
            printed = Path(*argv).read_text()
        else:
            assert main(argv) == 0, cmd
            printed = capsys.readouterr().out
        assert printed.splitlines() == expected, cmd


# -------------------------------------------------------------- simulation

def test_sim_run_writes_history(tmp_path, capsys):
    out = tmp_path / "history.csv"
    code = main(["sim", "run", str(SCENARIO_DIR / "tamper_node5.json"),
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "alarms at interval 0: FRTU_2" in printed
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16 * 6
    assert set(rows[0]) == {
        "interval", "meter_id", "node", "true_kwh", "reported_kwh",
        "frtu", "frtu_kwh",
    }
    tampered = [r for r in rows if r["meter_id"] == "M-05"]
    assert all(float(r["reported_kwh"]) == 0.0 for r in tampered)
    assert all(float(r["true_kwh"]) == pytest.approx(10.0) for r in tampered)


def test_sim_run_outage_leaves_blank_reading(tmp_path):
    scn = _write_json(tmp_path / "s.json", _scenario(
        CT8, _ct8_meters({"node": 5, "mode": "outage", "value": 0.0})))
    out = tmp_path / "history.csv"
    assert main(["sim", "run", scn, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["meter_id"] == "M-05"]
    assert rows and all(r["reported_kwh"] == "" for r in rows)


def test_sim_run_deterministic_per_seed(tmp_path):
    # Noise must be nonzero or the seed has nothing to influence.
    scn = _write_json(tmp_path / "s.json", _scenario(
        CT8, _ct8_meters(None), noise=0.05))
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(["sim", "run", scn, "--out", str(a)]) == 0
    assert main(["sim", "run", scn, "--out", str(b)]) == 0
    assert main(["sim", "run", scn, "--out", str(c), "--seed", "99"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_env_seed_outranks_flag_and_file(tmp_path, monkeypatch):
    scn = _write_json(tmp_path / "s.json", _scenario(
        CT8, _ct8_meters(None), noise=0.05, seed=7))
    via_flag = tmp_path / "flag.csv"
    assert main(["sim", "run", scn, "--out", str(via_flag), "--seed", "31"]) == 0

    monkeypatch.setenv("GRIDSLEUTH_SEED", "31")
    via_env = tmp_path / "env.csv"
    assert main(["sim", "run", scn, "--out", str(via_env), "--seed", "1234"]) == 0
    assert via_env.read_bytes() == via_flag.read_bytes()


# (source named in the error, scenario seed, --seed flag, GRIDSLEUTH_SEED, message)
BAD_SEEDS = [
    ("seed", -1, None, None, "must be a non-negative integer"),
    ("seed", 2.5, None, None, "must be an integer"),
    ("--seed", 7, "-1", None, "must be a non-negative integer"),
    ("GRIDSLEUTH_SEED", 7, None, "-1", "must be a non-negative integer"),
    ("GRIDSLEUTH_SEED", 7, "3", "2.5", "must be an integer"),
    ("GRIDSLEUTH_SEED", 7, None, "x", "must be an integer"),
    ("GRIDSLEUTH_SEED", 7, None, "", "must be an integer"),
]


@pytest.mark.parametrize("source, file_seed, flag, env, message", BAD_SEEDS)
def test_bad_seeds_exit_1_naming_their_source(
        tmp_path, monkeypatch, capsys, source, file_seed, flag, env, message):
    scn = _write_json(tmp_path / "s.json", _scenario(
        CT8, _ct8_meters({"node": 5, "mode": "scale", "value": 0.0}),
        seed=file_seed))
    if env is not None:
        monkeypatch.setenv("GRIDSLEUTH_SEED", env)
    seed_args = ["--seed", flag] if flag is not None else []
    history = tmp_path / "h.csv"
    commands = [
        ["sim", "run", scn, "--out", str(history)] + seed_args,
        ["localize", "run", scn, "--out-dir", str(tmp_path / "loc")] + seed_args,
    ]
    if source == "seed":
        history.write_text("interval,meter_id,node,true_kwh,reported_kwh,frtu\r\n")
        commands.append(["score", scn, "--history", str(history), "--node", "5",
                         "--out", str(tmp_path / "scores.csv")])
    for argv in commands:
        assert main(argv) == 1, argv
        assert f"error: malformed input: {source} {message}" in capsys.readouterr().err
    assert not (tmp_path / "loc").exists()
    assert not (tmp_path / "scores.csv").exists()
    assert source == "seed" or not history.exists()


# ------------------------------------------------------------ localization

def test_localize_writes_report_and_log(tmp_path, capsys):
    code = main(["localize", "run", str(SCENARIO_DIR / "tamper_node5.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "localization_report.json").read_text())
    assert report["final_suspects"] == [5]
    assert report["alarm_edge"] == 7
    assert report["initial_alarms"] == {"FRTU_1": False, "FRTU_2": True}
    assert report["irreducible"] is False
    assert report["suspect_history"][0] == [5, 6, 7]
    assert [(a["step"], a["action"], a["edge"]) for a in report["actions"]] == [
        (1, "close", 4), (2, "open", 5), (3, "open", 6)]
    log_lines = (tmp_path / "localization_steps.log").read_text().splitlines()
    assert log_lines == report["log"]
    assert "verdict: tampered node(s) [5]" in capsys.readouterr().out


def test_localize_report_is_deterministic(tmp_path):
    scn = str(SCENARIO_DIR / "tamper_node7.json")
    main(["localize", "run", scn, "--out-dir", str(tmp_path / "a")])
    main(["localize", "run", scn, "--out-dir", str(tmp_path / "b")])
    first = (tmp_path / "a" / "localization_report.json").read_bytes()
    second = (tmp_path / "b" / "localization_report.json").read_bytes()
    assert first == second


def test_localize_check_passes_on_truth(tmp_path, capsys):
    code = main(["localize", "run", str(SCENARIO_DIR / "tamper_node6.json"),
                 "--check", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "check: verdict matches ground truth" in capsys.readouterr().out


def test_localize_check_fails_on_wrong_truth(tmp_path, capsys):
    meters = _ct8_meters({"node": 5, "mode": "scale", "value": 0.0})
    scn = _write_json(tmp_path / "s.json", _scenario(
        CT8, meters, ground_truth=[6]))
    code = main(["localize", "run", scn, "--check", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "does not match ground truth" in capsys.readouterr().out


def test_localize_quiet_feeder_gives_empty_report(tmp_path, capsys):
    code = main(["localize", "run", str(SCENARIO_DIR / "no_tamper.json"),
                 "--check", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "localization_report.json").read_text())
    assert report["actions"] == []
    assert report["checks"] == []
    assert report["final_suspects"] == []
    assert "reads clear; no localization needed" in capsys.readouterr().out


# --------------------------------------------------------------- scoring

def test_score_ranks_tampered_meter_first(tmp_path, capsys):
    scn = str(SCENARIO_DIR / "tamper_node5.json")
    history = tmp_path / "history.csv"
    assert main(["sim", "run", scn, "--out", str(history)]) == 0
    out = tmp_path / "scores.csv"
    assert main(["score", scn, "--history", str(history), "--node", "5",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["meter_id"] for r in rows] == ["M-05"]
    assert rows[0]["rank"] == "1"
    assert float(rows[0]["s_a"]) == pytest.approx(1.0)
    assert "wrote 1 meter scores" in capsys.readouterr().out


def test_score_empty_node_writes_header_only(tmp_path):
    scn = str(SCENARIO_DIR / "tamper_node5.json")
    history = tmp_path / "history.csv"
    main(["sim", "run", scn, "--out", str(history)])
    out = tmp_path / "scores.csv"
    assert main(["score", scn, "--history", str(history), "--node", "2",
                 "--out", str(out)]) == 0
    # Node 2 hosts one honest meter; node 1 hosts none at all.
    lonely = tmp_path / "lonely.csv"
    assert main(["score", scn, "--history", str(history), "--node", "99",
                 "--out", str(lonely)]) == 0
    assert lonely.read_text().strip() == "meter_id,node,s_a,p_a,index,rank"


def test_score_rejects_column_short_history(tmp_path, capsys):
    scn = str(SCENARIO_DIR / "tamper_node5.json")
    bad = tmp_path / "bad.csv"
    bad.write_text("interval,meter_id\n0,M-05\n")
    assert main(["score", scn, "--history", str(bad), "--node", "5"]) == 1
    assert "malformed" in capsys.readouterr().err


def _score_text(tmp_path, capsys, history: str, node: int) -> tuple[int, str, str]:
    path = tmp_path / "history.csv"
    path.write_text(history)
    out = tmp_path / "scores.csv"
    code = main(["score", str(SCENARIO_DIR / "tamper_node5.json"),
                 "--history", str(path), "--node", str(node), "--out", str(out)])
    printed = capsys.readouterr()
    return code, printed.out + printed.err, out.read_text() if code == 0 else ""


def test_score_skips_blank_lines(tmp_path, capsys):
    scn = str(SCENARIO_DIR / "tamper_node5.json")
    history = tmp_path / "sim.csv"
    assert main(["sim", "run", scn, "--out", str(history)]) == 0
    capsys.readouterr()
    text = history.read_text()
    plain = _score_text(tmp_path, capsys, text, 5)
    spaced = _score_text(tmp_path, capsys, text.replace("\n", "\n\n"), 5)
    assert plain[0] == 0
    assert spaced == plain


def test_score_reads_last_of_a_repeated_column(tmp_path, capsys):
    history = (
        "interval,meter_id,node,reported_kwh,node\n"
        "0,M-05,2,0.000000,5\n"
        "1,M-05,2,0.000000,5\n")
    code, printed, scores = _score_text(tmp_path, capsys, history, 5)
    assert code == 0
    assert printed.startswith("wrote 1 meter scores")
    assert scores.splitlines()[1].startswith("M-05,5,")
    assert _score_text(tmp_path, capsys, history, 2)[1].startswith("wrote 0 meter scores")


def test_score_rejects_a_short_row(tmp_path, capsys):
    history = "interval,meter_id,node,reported_kwh\n0,M-05,5,0.0\n1,M-05,5\n"
    code, printed, _ = _score_text(tmp_path, capsys, history, 5)
    assert code == 1
    assert f"malformed history CSV {tmp_path / 'history.csv'}: " in printed


@pytest.mark.parametrize("row", [
    "x,M-02,2,10.0",     # junk interval
    "1,M-02,2,ten",      # junk reported_kwh
    "1,M-02,two,10.0",   # junk node
    "1,M-02,2.0,10.0",   # a node cell int() does not read
    "1,M-02,2",          # short row
])
def test_score_checks_rows_of_other_nodes(tmp_path, capsys, row):
    history = ("interval,meter_id,node,reported_kwh\n"
               f"0,M-05,5,0.0\n0,M-02,2,10.0\n{row}\n1,M-05,5,0.0\n")
    code, printed, _ = _score_text(tmp_path, capsys, history, 5)
    assert code == 1
    assert f"malformed history CSV {tmp_path / 'history.csv'}: " in printed


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf"])
def test_score_rejects_a_non_finite_reported_kwh(tmp_path, capsys, cell):
    # A meter reporting nan would otherwise score 0, like an honest one.
    scn = str(SCENARIO_DIR / "tamper_node5.json")
    sim = tmp_path / "sim.csv"
    assert main(["sim", "run", scn, "--intervals", "4", "--out", str(sim)]) == 0
    capsys.readouterr()
    with open(sim, newline="") as fh:
        rows = list(csv.reader(fh))
    meter, reported = rows[0].index("meter_id"), rows[0].index("reported_kwh")
    for row in rows[1:]:
        if row[meter] == "M-05":
            row[reported] = cell
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    for node in (5, 2):
        code, printed, _ = _score_text(tmp_path, capsys, text.getvalue(), node)
        assert code == 1
        assert f"malformed history CSV {tmp_path / 'history.csv'}: " in printed
        assert f"reported_kwh must be finite, got '{cell}'" in printed


def test_score_reads_a_meter_on_each_node_from_the_rows_naming_it(tmp_path, capsys):
    history = (
        "interval,meter_id,node,reported_kwh\n"
        "0,M-05,5,0.0\n"
        "1,M-05,4,10.0\n"
        "2,M-05,5,0.0\n"
        "3,M-05,4,10.0\n")
    rows = {}
    for node in (5, 4):
        code, printed, scores = _score_text(tmp_path, capsys, history, node)
        assert code == 0 and printed.startswith("wrote 1 meter scores")
        rows[node] = scores.splitlines()[1].split(",")
    # M-05's base load is 10 kWh: its node-5 rows read 0, its node-4 rows 10.
    assert [rows[5][:2], rows[4][:2]] == [["M-05", "5"], ["M-05", "4"]]
    assert (float(rows[5][2]), float(rows[4][2])) == (pytest.approx(1.0), 0.0)


def test_score_header_only_history(tmp_path, capsys):
    history = "interval,meter_id,node,true_kwh,reported_kwh,frtu,frtu_kwh\n"
    code, printed, scores = _score_text(tmp_path, capsys, history, 5)
    assert code == 0
    assert printed.startswith("wrote 0 meter scores")
    assert scores == "meter_id,node,s_a,p_a,index,rank\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("node", ["5", "99"])
def test_score_rejects_a_non_positive_or_non_finite_deviation_threshold(
        tmp_path, capsys, value, node):
    scn = str(SCENARIO_DIR / "tamper_node5.json")
    history = tmp_path / "history.csv"
    assert main(["sim", "run", scn, "--out", str(history)]) == 0
    out = tmp_path / "scores.csv"
    for hist in (history, tmp_path / "missing.csv"):
        capsys.readouterr()
        assert main(["score", scn, "--history", str(hist), "--node", node,
                     f"--deviation-threshold={value}", "--out", str(out)]) == 1
        assert "deviation threshold must be a positive finite number" in (
            capsys.readouterr().err)
        assert not out.exists()


# ------------------------------------------------------------- history CSV

def reference_history_rows(interval, meters, coverage):
    """The row builder the column formatter replaced, one list per meter of
    ``meters``; ``coverage`` is ``frtu_coverage`` at the simulated state."""
    node_frtu = {node: frtu for frtu, covered in coverage.items() for node in covered}
    frtu_kwh = dict(zip(interval.frtus, interval.aggregate_kwh))
    for meter, true_kwh, reported_kwh, silenced in zip(
            meters, interval.true_kwh.tolist(), interval.reported_kwh.tolist(),
            interval.silenced.tolist()):
        frtu = node_frtu.get(meter.node, "")
        yield [
            interval.index,
            meter.meter_id,
            meter.node,
            f"{true_kwh:.6f}",
            "" if silenced else f"{reported_kwh:.6f}",
            frtu,
            f"{frtu_kwh[frtu]:.6f}" if frtu else "",
        ]


# ct8 plus load 9 hung straight off source 1 by a sectionalizer: it is fed
# in the normal state, but its section holds a source, so no FRTU meters it.
UNMETERED_SPEC = {
    "nodes": _ct8_spec()["nodes"] + [{"id": 9, "kind": "load"}],
    "edges": _ct8_spec()["edges"] + [
        {"id": 8, "kind": "sectionalizer", "from": 1, "to": 9}],
}
AWKWARD_METERS = [
    {"meter_id": "M,2", "node": 2, "base_load_kwh": 10.0},
    {"meter_id": 'M"3"', "node": 3, "base_load_kwh": 10.0,
     "tamper": {"mode": "outage"}},
    {"meter_id": "M 5", "node": 5, "base_load_kwh": 10.0,
     "tamper": {"mode": "scale", "value": 0.25}},
    {"meter_id": "M-6", "node": 6, "base_load_kwh": 7.5},
    {"meter_id": " M-7,\"", "node": 7, "base_load_kwh": 12.0,
     "tamper": {"mode": "fixed", "value": 3.0}},
    {"meter_id": "M-9", "node": 9, "base_load_kwh": 4.0},
    # Reports its true value bit for bit although it carries a tamper.
    {"meter_id": "M=4", "node": 4, "base_load_kwh": 6.0,
     "tamper": {"mode": "scale", "value": 1.0}},
]


@pytest.mark.parametrize("vr", [None, "1111001"])
def test_sim_run_history_equals_the_row_builder(tmp_path, monkeypatch, capsys, vr):
    # "1111001" opens edges 5 and 6: node 6 runs on its DG, so no FRTU
    # meters it. Sim run always simulates the normal state, so the test
    # swaps the state under it.
    topo_path = _write_json(tmp_path / "topo.json", UNMETERED_SPEC)
    scn = _write_json(tmp_path / "s.json", _scenario(
        topo_path, AWKWARD_METERS, noise=0.05, loss_factor=0.03, intervals=3))
    intervals = []
    real = cli.simulate_intervals

    def simulate(topo, states, meters, *args, **kwargs):
        if vr is not None:
            states = states_from_string(vr + "1", topo)
        for interval in real(topo, states, meters, *args, **kwargs):
            intervals.append((interval, meters, frtu_coverage(topo, states)))
            yield interval

    monkeypatch.setattr(cli, "simulate_intervals", simulate)
    out = tmp_path / "history.csv"
    assert main(["sim", "run", scn, "--out", str(out)]) == 0

    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(cli.HISTORY_COLUMNS)
    for interval, meters, coverage in intervals:
        writer.writerows(reference_history_rows(interval, meters, coverage))
    assert out.read_bytes().decode("utf-8") == expected.getvalue()
    rows = list(csv.DictReader(io.StringIO(expected.getvalue())))
    assert {r["meter_id"] for r in rows} == {m["meter_id"] for m in AWKWARD_METERS}
    assert {r["frtu"] for r in rows if r["node"] in ("6", "9")} == (
        {""} if vr else {"", "FRTU_2"})
    assert {r["reported_kwh"] for r in rows if r["node"] == "3"} == {""}

    capsys.readouterr()
    for meter in AWKWARD_METERS:
        scores = tmp_path / "scores.csv"
        assert main(["score", scn, "--history", str(out), "--node", str(meter["node"]),
                     "--out", str(scores)]) == 0
        with open(scores, newline="") as fh:
            assert [r["meter_id"] for r in csv.DictReader(fh)] == [meter["meter_id"]]


def test_history_text_keeps_a_negative_zero_report():
    # Edge 5 open strands node 5, so its meters draw 0.0. A negative scale
    # or a fixed -0.0 then reports -0.0: equal to 0.0 under ==, but not bit
    # for bit, and it prints as -0.000000.
    t = ct8()
    meters = [
        CustomerMeter("M-5a", 5, 10.0, Tamper(TamperKind.SCALE, -1.0)),
        CustomerMeter("M-5b", 5, 10.0, Tamper(TamperKind.FIXED, -0.0)),
        CustomerMeter("M-5c", 5, 10.0),
        CustomerMeter("M-2", 2, 10.0, Tamper(TamperKind.SCALE, 1.0)),
    ]
    states = states_from_string("1110011", t)
    interval = simulate_interval(t, states, meters, seed=3, noise=0.1, index=2)
    prefixes = [cli._csv_line(m.meter_id, m.node, "").removesuffix("\r\n")
                for m in meters]
    text = cli._history_text(interval, prefixes)
    expected = io.StringIO()
    csv.writer(expected).writerows(
        reference_history_rows(interval, meters, frtu_coverage(t, states)))
    assert text == expected.getvalue()
    rows = list(csv.reader(io.StringIO(text)))
    assert [row[4] for row in rows[:3]] == ["-0.000000", "-0.000000", "0.000000"]
    assert rows[3][4] == rows[3][3] != "10.000000"


# -------------------------------------------------------------- exit codes

def test_exit_input_on_missing_file(tmp_path, capsys):
    assert main(["topo", "validate", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_input_on_broken_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n")
    assert main(["topo", "validate", str(path)]) == 1


def test_exit_input_on_wrong_vr_length():
    assert main(["topo", "energize", CT8, "--vr", "111"]) == 1


def test_exit_input_on_junk_vr_characters():
    assert main(["topo", "energize", CT8, "--vr", "11x0111"]) == 1


def _drop(items, index, key):
    return lambda doc: items(doc)[index].pop(key)


def _put(items, index, value):
    return lambda doc: items(doc).__setitem__(index, value)


def _meters(doc):
    return doc["scenario"]["meters"]


def _nodes(doc):
    return doc["topology"]["nodes"]


def _edges(doc):
    return doc["topology"]["edges"]


# (how to break tamper_node5.json or ct8.json, the message sim run exits 1 with)
MALFORMED_ITEMS = [
    (lambda doc: _meters(doc)[3]["tamper"].pop("mode"), 'meter M-05 tamper is missing "mode"'),
    (lambda doc: _meters(doc)[3].update(tamper="scale"),
     "meter M-05 tamper must be a JSON object, got 'scale'"),
    (lambda doc: _meters(doc)[3].update(tamper=["scale", 0.0]),
     "meter M-05 tamper must be a JSON object, got ['scale', 0.0]"),
    (_drop(_meters, 0, "base_load_kwh"), 'meter M-02 is missing "base_load_kwh"'),
    (_drop(_meters, 1, "node"), 'meter M-03 is missing "node"'),
    (_drop(_meters, 2, "meter_id"), 'meter at position 3 is missing "meter_id"'),
    (_put(_meters, 4, "M-06"), "meter at position 5 must be a JSON object, got 'M-06'"),
    (_put(_meters, 0, None), "meter at position 1 must be a JSON object, got None"),
    (lambda doc: doc["scenario"].pop("seed"), 'scenario.json is missing "seed"'),
    (lambda doc: doc["scenario"].pop("topology"), 'scenario.json is missing "topology"'),
    (lambda doc: doc["scenario"].pop("meters"), 'scenario.json is missing "meters"'),
    (lambda doc: doc.update(scenario=[]), "scenario.json must be a JSON object, got []"),
    (lambda doc: doc.update(topology=[]), "topology must be a JSON object, got []"),
    (lambda doc: doc.update(topology="x"), "topology must be a JSON object, got 'x'"),
    (_drop(_edges, 1, "from"), 'edge 2 is missing "from"'),
    (_drop(_edges, 6, "to"), 'edge 7 is missing "to"'),
    (_drop(_edges, 1, "id"), 'edge at position 2 is missing "id"'),
    (_put(_edges, 3, [3, 5]), "edge at position 4 must be a JSON object, got [3, 5]"),
    (_drop(_nodes, 2, "id"), 'node at position 3 is missing "id"'),
    (_put(_nodes, 1, "load"), "node at position 2 must be a JSON object, got 'load'"),
    # A number must be a JSON number: text, a list, an object or null is
    # refused by name, not parsed, and not let through to fail unnamed.
    (lambda doc: _meters(doc)[0].update(base_load_kwh="10"),
     "meter M-02 base_load_kwh must be a finite number in [0, inf], got '10'"),
    (lambda doc: _meters(doc)[1].update(node="3"), "meter M-03 node must be an integer, got '3'"),
    (lambda doc: _meters(doc)[3]["tamper"].update(value=[0]),
     "meter M-05 tamper value must be a finite number in [0, inf], got [0]"),
    (lambda doc: doc["scenario"].update(noise="0.1"),
     "noise must be a finite number in [0, 1.0], got '0.1'"),
    (lambda doc: doc["scenario"].update(threshold="abc"),
     "threshold must be a finite number in [0, inf], got 'abc'"),
    (lambda doc: doc["scenario"].update(loss_factor=[1]),
     "loss_factor must be a finite number in [0, inf], got [1]"),
    (lambda doc: doc["scenario"].update(seed="7"), "seed must be an integer, got '7'"),
    (lambda doc: doc["scenario"].update(seed=None), "seed must be an integer, got None"),
    (lambda doc: doc["scenario"].update(intervals="3"), "intervals must be an integer, got '3'"),
    (lambda doc: doc["scenario"].update(alarm_edge={"id": 7}),
     "alarm_edge must be an integer, got {'id': 7}"),
    (lambda doc: doc["scenario"].update(ground_truth=["5"]),
     "ground_truth must be an integer, got '5'"),
    (lambda doc: _edges(doc)[1].update(id="2"), "edge id must be an integer, got '2'"),
    (lambda doc: _nodes(doc)[2].update(id=None), "node id must be an integer, got None"),
    # Lists must be lists: a number is not iterated, a string not read
    # character by character.
    (lambda doc: doc["scenario"].update(meters=5), 'scenario.json "meters" must be a JSON list, got 5'),
    (lambda doc: doc["scenario"].update(meters="M-02"),
     "scenario.json \"meters\" must be a JSON list, got 'M-02'"),
    (lambda doc: doc["scenario"].update(ground_truth=5),
     'scenario.json "ground_truth" must be a JSON list, got 5'),
    (lambda doc: doc["scenario"].update(ground_truth=None),
     'scenario.json "ground_truth" must be a JSON list, got None'),
    (lambda doc: doc["topology"].update(nodes=5), 'topology "nodes" must be a JSON list, got 5'),
    (lambda doc: doc["topology"].update(edges={"id": 1}),
     "topology \"edges\" must be a JSON list, got {'id': 1}"),
]


@pytest.mark.parametrize("command", [["sim", "run"], ["localize", "run"]])
@pytest.mark.parametrize("breaks, message", MALFORMED_ITEMS,
                         ids=[message for _, message in MALFORMED_ITEMS])
def test_exit_input_naming_a_missing_field_or_a_non_object_item(
        tmp_path, capsys, command, breaks, message):
    doc = {"scenario": json.loads((SCENARIO_DIR / "tamper_node5.json").read_text()),
           "topology": _ct8_spec()}
    breaks(doc)
    if isinstance(doc["scenario"], dict) and "topology" in doc["scenario"]:
        doc["scenario"]["topology"] = "topo.json"
    _write_json(tmp_path / "topo.json", doc["topology"])
    _write_json(tmp_path / "scenario.json", doc["scenario"])
    out = tmp_path / "out"
    extra = ["--out", str(out)] if command[0] == "sim" else ["--out-dir", str(out)]
    assert main([*command, str(tmp_path / "scenario.json"), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed input: ") and err.rstrip().endswith(message), err
    assert not out.exists()
    if message.startswith(("topology", "edge", "node")):
        assert main(["topo", "validate", str(tmp_path / "topo.json")]) == 1
        assert capsys.readouterr().err == f"error: malformed input: {message}\n"


# (a scenario "topology" that is not a path, the message sim run exits 1
# with); MALFORMED_ITEMS rewrites "topology" to its own file, so these
# cases are this table's.
MALFORMED_TOPOLOGY_PATHS = [
    (5, 'scenario.json "topology" must be a file path, got 5'),
    (None, 'scenario.json "topology" must be a file path, got None'),
    (["ct8.json"], "scenario.json \"topology\" must be a file path, got ['ct8.json']"),
]


@pytest.mark.parametrize("command", [["sim", "run"], ["localize", "run"]])
@pytest.mark.parametrize("topology, message", MALFORMED_TOPOLOGY_PATHS,
                         ids=[message for _, message in MALFORMED_TOPOLOGY_PATHS])
def test_exit_input_naming_a_topology_that_is_not_a_path(
        tmp_path, capsys, command, topology, message):
    doc = json.loads((SCENARIO_DIR / "tamper_node5.json").read_text())
    doc["topology"] = topology
    _write_json(tmp_path / "scenario.json", doc)
    out = tmp_path / "out"
    extra = ["--out", str(out)] if command[0] == "sim" else ["--out-dir", str(out)]
    assert main([*command, str(tmp_path / "scenario.json"), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed input: ") and err.rstrip().endswith(message), err
    assert not out.exists()


def test_exit_input_on_missing_scenario_key(tmp_path):
    scn = tmp_path / "s.json"
    scn.write_text(json.dumps({"topology": CT8, "seed": 1}))
    assert main(["sim", "run", str(scn)]) == 1


@pytest.mark.parametrize("nodes, code", [((1, 99), 1), ((99, 1), 2)])
def test_sim_run_meter_placement_exit_codes(tmp_path, nodes, code):
    # A meter on a source is malformed input (1); one on a node id outside
    # the network violates the topology (2). The first bad meter decides.
    meters = [{"meter_id": f"M-{n:02d}", "node": n, "base_load_kwh": 1.0} for n in nodes]
    scn = _write_json(tmp_path / "s.json", _scenario(CT8, meters))
    assert main(["sim", "run", scn, "--out", str(tmp_path / "h.csv")]) == code


@pytest.mark.parametrize("before", [None, "left alone\n"])
def test_sim_run_misplaced_meter_leaves_out_file_alone(tmp_path, before):
    meters = _ct8_meters(None) + [
        {"meter_id": "M-01", "node": 1, "base_load_kwh": 1.0}]
    scn = _write_json(tmp_path / "s.json", _scenario(CT8, meters))
    out = tmp_path / "h.csv"
    if before is not None:
        out.write_text(before)
    assert main(["sim", "run", scn, "--out", str(out)]) == 1
    if before is None:
        assert not out.exists()
    else:
        assert out.read_text() == before


def test_exit_input_on_out_of_range_alarm_edge(tmp_path, capsys):
    scn = str(SCENARIO_DIR / "tamper_node5.json")
    assert main(["localize", "run", scn, "--alarm-edge", "99",
                 "--out-dir", str(tmp_path)]) == 1
    assert "does not exist" in capsys.readouterr().err


def test_exit_input_on_non_breaker_alarm_edge(tmp_path):
    scn = str(SCENARIO_DIR / "tamper_node5.json")
    assert main(["localize", "run", scn, "--alarm-edge", "4",
                 "--out-dir", str(tmp_path)]) == 1


def test_exit_invariant_on_malformed_topology(tmp_path):
    spec = _ct8_spec()
    spec["edges"][1]["id"] = 1
    path = _write_json(tmp_path / "dup.json", spec)
    assert main(["topo", "validate", path]) == 2


def test_exit_invariant_on_self_loop(tmp_path, capsys):
    spec = _ct8_spec()
    spec["edges"][1]["to"] = spec["edges"][1]["from"]
    path = _write_json(tmp_path / "selfloop.json", spec)
    assert main(["topo", "validate", path]) == 2
    assert "connects node 2 to itself" in capsys.readouterr().err


def test_exit_invariant_on_a_dg_on_a_source(tmp_path, capsys):
    spec = _ct8_spec()
    spec["nodes"][0]["dg"] = True
    path = _write_json(tmp_path / "dg_source.json", spec)
    assert main(["topo", "validate", path]) == 2
    assert "node 1 is a source and cannot carry a DG" in capsys.readouterr().err


@pytest.mark.parametrize("generated", [False, True])
def test_exit_invariant_on_breakers_sharing_an_frtu(tmp_path, capsys, generated):
    # Breaker 1 takes breaker 7's FRTU name, given in the file or generated.
    spec = _ct8_spec()
    spec["edges"][0]["frtu"] = spec["edges"][6]["frtu"] = "FRTU_7"
    if generated:
        del spec["edges"][6]["frtu"]
    path = _write_json(tmp_path / "shared_frtu.json", spec)
    assert main(["topo", "validate", path]) == 2
    assert "FRTU FRTU_7 names both breaker edges 1 and 7" in capsys.readouterr().err


def test_exit_input_on_a_non_boolean_dg(tmp_path, capsys):
    spec = _ct8_spec()
    spec["nodes"][5]["dg"] = "false"
    path = _write_json(tmp_path / "dg_string.json", spec)
    assert main(["topo", "validate", path]) == 1
    assert "node 6 \"dg\" must be true or false, got 'false'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["sim", "run"], ["localize", "run"], ["score"]])
def test_exit_input_on_a_repeated_meter_id(tmp_path, capsys, command):
    # Scored by id, the node-2 meter would be read against M-05's base
    # load; simulated, two meters with one id would merge into one series.
    meters = _ct8_meters({"node": 5, "mode": "scale", "value": 0.0})
    meters[0]["meter_id"] = "M-05"
    scn = _write_json(tmp_path / "s.json", _scenario(CT8, meters))
    history = tmp_path / "h.csv"
    history.write_text("interval,meter_id,node,reported_kwh\n")
    extra = {"sim": ["--out", str(history)], "localize": ["--out-dir", str(tmp_path)],
             "score": ["--history", str(history), "--node", "5",
                       "--out", str(tmp_path / "scores.csv")]}[command[0]]
    assert main([*command, scn, *extra]) == 1
    assert "meter_id 'M-05' is used by more than one meter" in capsys.readouterr().err


@pytest.mark.parametrize("frtu", [5, "", True, ["FRTU_1"]])
def test_exit_input_on_a_breaker_frtu_that_is_not_a_name(tmp_path, capsys, frtu):
    # A number would key a coverage next to FRTU_2 and fail to sort with it
    # mid-localization; an empty name would head a column of the history.
    spec = _ct8_spec()
    spec["edges"][0]["frtu"] = frtu
    path = _write_json(tmp_path / "frtu_name.json", spec)
    assert main(["topo", "validate", path]) == 1
    assert f'edge 1 "frtu" must be a non-empty string, got {frtu!r}' in capsys.readouterr().err


@pytest.mark.parametrize("edge, kind", [(2, "sectionalizer"), (4, "tie")])
def test_exit_invariant_on_an_frtu_off_a_breaker(tmp_path, capsys, edge, kind):
    # Only a breaker's FRTU is ever read; a name elsewhere would be ignored.
    spec = _ct8_spec()
    spec["edges"][edge - 1]["frtu"] = "FRTU_X"
    path = _write_json(tmp_path / "frtu_off_breaker.json", spec)
    assert main(["topo", "validate", path]) == 2
    assert (f"edge {edge} is a {kind} and cannot carry an FRTU"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", [["sim", "run"], ["localize", "run"], ["score"]])
@pytest.mark.parametrize("meter_id", [5, "", None, True])
def test_exit_input_on_a_meter_id_that_is_not_a_name(tmp_path, capsys, command, meter_id):
    # The history names a meter by its id as text, so score would not find
    # an integer id it wrote; reject it before anything is simulated.
    meters = _ct8_meters({"node": 5, "mode": "scale", "value": 0.0})
    meters[3]["meter_id"] = meter_id
    scn = _write_json(tmp_path / "s.json", _scenario(CT8, meters))
    history = tmp_path / "h.csv"
    history.write_text("interval,meter_id,node,reported_kwh\n")
    extra = {"sim": ["--out", str(history)], "localize": ["--out-dir", str(tmp_path)],
             "score": ["--history", str(history), "--node", "5",
                       "--out", str(tmp_path / "scores.csv")]}[command[0]]
    assert main([*command, scn, *extra]) == 1
    assert (f"meter_id must be a non-empty string, got {meter_id!r}"
            in capsys.readouterr().err)


def test_exit_input_on_a_number_and_a_string_meter_id_that_print_alike(tmp_path, capsys):
    # Ids 5 and "5" pass a duplicate check on JSON values, but both write
    # "5" to the history, where score would read one meter against the
    # other's base load.
    meters = _ct8_meters()
    meters[0]["meter_id"], meters[1]["meter_id"] = 5, "5"
    scn = _write_json(tmp_path / "s.json", _scenario(CT8, meters))
    assert main(["sim", "run", scn, "--out", str(tmp_path / "h.csv")]) == 1
    assert "meter_id must be a non-empty string, got 5" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


def test_exit_invariant_on_zero_aggregate(tmp_path, capsys):
    meters = [
        {"meter_id": "M-05", "node": 5, "base_load_kwh": 0.0,
         "tamper": {"mode": "fixed", "value": 4.0}},
    ]
    scn = _write_json(tmp_path / "s.json", _scenario(CT8, meters))
    assert main(["sim", "run", scn, "--out", str(tmp_path / "h.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_infeasible_when_islanding_would_darken_a_load(tmp_path):
    topo = {
        "nodes": [
            {"id": 1, "kind": "source"},
            {"id": 2, "kind": "load"},
            {"id": 3, "kind": "load", "dg": True},
            {"id": 4, "kind": "load"},
        ],
        "edges": [
            {"id": 1, "kind": "breaker", "from": 1, "to": 2, "frtu": "FRTU_1"},
            {"id": 2, "kind": "sectionalizer", "from": 2, "to": 3},
            {"id": 3, "kind": "sectionalizer", "from": 3, "to": 4},
        ],
    }
    topo_path = _write_json(tmp_path / "chain.json", topo)
    meters = [
        {"meter_id": "M-02", "node": 2, "base_load_kwh": 10.0},
        {"meter_id": "M-03", "node": 3, "base_load_kwh": 10.0},
        {"meter_id": "M-04", "node": 4, "base_load_kwh": 10.0,
         "tamper": {"mode": "scale", "value": 0.0}},
    ]
    scn = _write_json(tmp_path / "s.json", _scenario(
        topo_path, meters, alarm_edge=1, ground_truth=[4]))
    assert main(["localize", "run", scn, "--out-dir", str(tmp_path)]) == 3


def test_batch_of_seeded_scenarios_all_check_clean(tmp_path):
    # Round-trip 100 fuzzed episodes through scenario files and the full
    # CLI: every verdict must match the ground truth carried in the file.
    from episode_fuzz import FUZZ_THRESHOLD, make_episode

    for seed in range(100):
        ep = make_episode(seed)
        topo_path = _write_json(tmp_path / f"t{seed}.json", ep.spec)
        meters = []
        for m in ep.meters:
            entry = {
                "meter_id": m.meter_id,
                "node": m.node,
                "base_load_kwh": m.base_load_kwh,
            }
            if m.tamper is not None:
                entry["tamper"] = {"mode": m.tamper.kind.value, "value": m.tamper.value}
            meters.append(entry)
        scn = _write_json(tmp_path / f"s{seed}.json", _scenario(
            topo_path, meters, seed=ep.seed, threshold=FUZZ_THRESHOLD,
            alarm_edge=ep.alarm_edge, ground_truth=[ep.tampered_node]))
        code = main(["localize", "run", scn, "--check",
                     "--out-dir", str(tmp_path / f"out{seed}")])
        assert code == 0, f"episode seed {seed} failed its --check run"


def test_exit_inconsistent_on_mutually_masking_tamper(tmp_path, capsys):
    # Two meters straddling the transfer boundary each hide inside the
    # other's denominator: every post-transfer reading comes back clean, the
    # telemetry contradicts the original alarm, and the run must say so.
    topo_path = _write_json(tmp_path / "ct8_nodg.json", _ct8_spec(dg=False))
    meters = _ct8_meters(None)
    for m in meters:
        if m["node"] in (5, 6):
            m["tamper"] = {"mode": "scale", "value": 0.6}
    scn = _write_json(tmp_path / "s.json", _scenario(
        topo_path, meters, ground_truth=[5, 6]))
    assert main(["localize", "run", scn, "--out-dir", str(tmp_path)]) == 4
    assert "contradictory telemetry" in capsys.readouterr().err
