"""Command-line interface.

Subcommands:

- ``topo validate``: structural and operating-state checks on a topology
- ``topo matrices``: dump incidence and adjacency matrices (dense + sparse)
- ``topo energize``: print the energization vector for a switch string
- ``sim run``: simulate metering intervals, write the reading history CSV
- ``localize run``: run tamper localization against the simulated feeder
- ``score``: rank a node's meters from a reading history

Exit codes: 0 success, 1 unreadable or malformed input, 2 violated network
invariant (also a ``--check`` mismatch), 3 infeasible switching plan,
4 contradictory telemetry.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import operator
import os
import sys
from pathlib import Path

import numpy as np

from .energize import energized_nodes
from .errors import (
    DimensionMismatchError,
    GridSleuthError,
    InfeasiblePlanError,
    NotABreakerError,
    OracleInconsistentError,
    TopologyError,
    UnknownFrtuError,
    UnknownNodeError,
    ZeroAggregateError,
)
from .metering import (
    MeterInterval,
    SimulationOracle,
    frtu_alarms,
    load_scenario,
    seed_field,
    simulate_intervals,
)
from .planner import localize
from .scoring import (
    DEFAULT_DEVIATION_THRESHOLD,
    rank_meters,
    score_window,
)
from .topology import (
    adjacency_from_incidence,
    load_topology,
    states_from_string,
    states_to_string,
    validate_operating_state,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2
EXIT_INFEASIBLE = 3
EXIT_INCONSISTENT = 4

# The reading history CSV that ``sim run`` writes and ``score`` reads.
HISTORY_COLUMNS = (
    "interval", "meter_id", "node", "true_kwh", "reported_kwh", "frtu", "frtu_kwh",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridsleuth",
        description="Localize tampered smart meters in a radial distribution network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topo", help="topology inspection")
    topo_sub = topo.add_subparsers(dest="topo_command", required=True)

    p_validate = topo_sub.add_parser("validate", help="check network invariants")
    p_validate.add_argument("topology", help="topology JSON file")
    p_validate.add_argument("--vr", help="switch states to validate (default: normal)")

    p_matrices = topo_sub.add_parser("matrices", help="write matrix CSV files")
    p_matrices.add_argument("topology", help="topology JSON file")
    p_matrices.add_argument("--vr", help="switch states for the adjacency (default: all closed)")
    p_matrices.add_argument("--out-dir", default=".", help="output directory")

    p_energize = topo_sub.add_parser("energize", help="print the energization vector")
    p_energize.add_argument("topology", help="topology JSON file")
    p_energize.add_argument("--vr", required=True, help="switch states, e.g. 1110111")

    sim = sub.add_parser("sim", help="metering simulation")
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)
    p_sim = sim_sub.add_parser("run", help="simulate intervals and write the history CSV")
    p_sim.add_argument("scenario", help="scenario JSON file")
    p_sim.add_argument("--intervals", type=int, help="override the scenario interval count")
    p_sim.add_argument("--seed", type=int, help="override the scenario seed")
    p_sim.add_argument("--out", default="intervals.csv", help="history CSV path")

    loc = sub.add_parser("localize", help="tamper localization")
    loc_sub = loc.add_subparsers(dest="localize_command", required=True)
    p_loc = loc_sub.add_parser("run", help="localize the scenario's feeder alarm")
    p_loc.add_argument("scenario", help="scenario JSON file")
    p_loc.add_argument("--alarm-edge", type=int, help="override the scenario alarm edge")
    p_loc.add_argument("--seed", type=int, help="override the scenario seed")
    p_loc.add_argument(
        "--check", action="store_true",
        help="verify the verdict against the scenario ground truth and "
             "re-validate every committed state")
    p_loc.add_argument("--out-dir", default=".", help="report output directory")

    p_score = sub.add_parser("score", help="rank a node's meters from a history CSV")
    p_score.add_argument("scenario", help="scenario JSON file (baseline consumption)")
    p_score.add_argument("--history", required=True, help="reading history CSV from 'sim run'")
    p_score.add_argument("--node", type=int, required=True, help="localized node id")
    p_score.add_argument(
        "--deviation-threshold", type=float, default=DEFAULT_DEVIATION_THRESHOLD,
        help="fractional deviation from the historical median that flags a reading")
    p_score.add_argument("--out", default="scores.csv", help="scoring CSV path")
    return parser


def _effective_seed(file_seed: int, flag_seed: int | None) -> int:
    env = os.environ.get("GRIDSLEUTH_SEED")
    if env is not None:
        return seed_field("GRIDSLEUTH_SEED", env)
    if flag_seed is not None:
        return seed_field("--seed", flag_seed)
    return file_seed


def cmd_topo_validate(args: argparse.Namespace) -> int:
    topo = load_topology(args.topology)
    print(f"structure: ok ({topo.n_nodes} nodes, {topo.n_edges} edges)")
    states = (
        states_from_string(args.vr, topo) if args.vr else topo.normal_states()
    )
    result = validate_operating_state(topo, states)
    print(f"switch states: {states_to_string(states)}")
    print(f"loop check: {'LOOP' if result.has_loop else 'radial'}")
    print(f"dark loads: {sorted(result.dark_loads) if result.dark_loads else 'none'}")
    print(
        "dg islands: "
        + (", ".join(str(sorted(i)) for i in result.dg_islands) or "none"))
    if result.violations:
        for v in result.violations:
            print(f"violation: {v}")
        return EXIT_INVARIANT
    print("operating state: ok")
    return EXIT_OK


def _write_dense(path: Path, matrix: np.ndarray, col_ids: list[int]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node"] + [str(c) for c in col_ids])
        for i, row in enumerate(matrix, start=1):
            writer.writerow([str(i)] + [str(int(x)) for x in row])


def _write_sparse(path: Path, matrix: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "value"])
        rows, cols = np.nonzero(matrix)
        for r, c in zip(rows, cols):
            writer.writerow([str(r + 1), str(c + 1), str(int(matrix[r, c]))])


def cmd_topo_matrices(args: argparse.Namespace) -> int:
    topo = load_topology(args.topology)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    incidence = topo.incidence()
    if args.vr:
        states = states_from_string(args.vr, topo)
    else:
        states = np.ones(topo.n_edges, dtype=np.uint8)
    adjacency = adjacency_from_incidence(incidence, states)
    _write_dense(out / "incidence.csv", incidence, [e.id for e in topo.edges])
    _write_sparse(out / "incidence_sparse.csv", incidence)
    _write_dense(out / "adjacency.csv", adjacency, [n.id for n in topo.nodes])
    _write_sparse(out / "adjacency_sparse.csv", adjacency)
    print(f"incidence: {incidence.shape[0]}x{incidence.shape[1]}, "
          f"{int(incidence.sum())} entries")
    print(f"adjacency: {adjacency.shape[0]}x{adjacency.shape[1]}, "
          f"{int(adjacency.sum())} entries under {states_to_string(states)}")
    print(f"wrote 4 files to {out}")
    return EXIT_OK


def cmd_topo_energize(args: argparse.Namespace) -> int:
    topo = load_topology(args.topology)
    states = states_from_string(args.vr, topo)
    vf = energized_nodes(topo, states)
    print(states_to_string(vf))
    return EXIT_OK


class _Echo:
    """A sink whose ``write`` returns its text, so ``csv.writer`` quotes into a string."""

    def write(self, text: str) -> str:
        return text


def _csv_line(*cells) -> str:
    """``cells`` as the one line ``csv.writer`` writes for them, line end included."""
    return csv.writer(_Echo()).writerow(cells)


def _history_text(interval: MeterInterval, prefixes: list[str]) -> str:
    """The history rows of ``interval``, in ``HISTORY_COLUMNS`` order.

    ``prefixes`` holds each meter's quoted ``meter_id,node,`` cells. Each
    FRTU's two cells and the line end are quoted once; index -1 (no FRTU)
    picks two empty cells. A reported value that equals the true value bit
    for bit (every honest meter) reuses the true value's text, so only
    tampered values are formatted again.
    """
    tails = [_csv_line(frtu, f"{aggregate:.6f}")
             for frtu, aggregate in zip(interval.frtus, interval.aggregate_kwh)]
    tails.append(_csv_line("", ""))
    true_kwh, reported_kwh = interval.true_kwh, interval.reported_kwh
    true_text = [f"{x:.6f}" for x in true_kwh.tolist()]
    reported = true_text.copy()
    at = np.flatnonzero(reported_kwh.view(np.uint64) != true_kwh.view(np.uint64))
    for i, x in zip(at.tolist(), reported_kwh[at].tolist()):
        reported[i] = f"{x:.6f}"
    for i in np.flatnonzero(interval.silenced).tolist():
        reported[i] = ""
    k = interval.index
    return "".join([
        f"{k},{prefix}{true},{rep},{tails[j]}"
        for prefix, true, rep, j in zip(
            prefixes, true_text, reported, interval.frtu_index.tolist())
    ])


def cmd_sim_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    seed = _effective_seed(scenario.seed, args.seed)
    intervals = args.intervals if args.intervals is not None else scenario.intervals
    if intervals <= 0:
        raise DimensionMismatchError(f"interval count must be positive, got {intervals}")
    topo = scenario.topology
    # The state and the meters are checked before --out is opened, so a
    # meter on a non-load node leaves no file, or an existing one untouched.
    simulated = simulate_intervals(
        topo, topo.normal_states(), scenario.meters, seed, range(intervals),
        noise=scenario.noise, loss_factor=scenario.loss_factor)
    first = next(simulated)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    prefixes = [
        _csv_line(m.meter_id, m.node, "").removesuffix(csv.excel.lineterminator)
        for m in scenario.meters
    ]
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(*HISTORY_COLUMNS))
        fh.write(_history_text(first, prefixes))
        for interval in simulated:
            fh.write(_history_text(interval, prefixes))

    alarms = frtu_alarms(first.frtus, first.aggregate_kwh, first.reported_sum_kwh,
                         scenario.threshold)
    alarmed = [frtu for frtu, alarm in alarms.items() if alarm]
    print(f"wrote {intervals * len(scenario.meters)} rows ({intervals} intervals) to {out}")
    print("alarms at interval 0: " + (", ".join(alarmed) if alarmed else "none"))
    return EXIT_OK


def cmd_localize_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    seed = _effective_seed(scenario.seed, args.seed)
    alarm_edge = args.alarm_edge if args.alarm_edge is not None else scenario.alarm_edge
    if alarm_edge is None:
        raise UnknownFrtuError(
            "no alarm edge: pass --alarm-edge or set it in the scenario")
    topo = scenario.topology
    if not 1 <= alarm_edge <= topo.n_edges:
        raise NotABreakerError(
            f"alarm edge {alarm_edge} does not exist (edges run 1..{topo.n_edges})")
    oracle = SimulationOracle(
        topo, scenario.meters, seed,
        noise=scenario.noise, loss_factor=scenario.loss_factor,
        threshold=scenario.threshold)
    report = localize(topo, alarm_edge, oracle)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "localization_report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    log_path = out / "localization_steps.log"
    with open(log_path, "w", encoding="utf-8") as fh:
        for line in report.log:
            fh.write(line + "\n")
    for line in report.log:
        print(line)
    print(f"wrote {report_path} and {log_path}")

    if args.check:
        for bits in report.committed_states:
            result = validate_operating_state(topo, states_from_string(bits, topo))
            if result.violations:
                print(f"check: committed state {bits} violates operating rules")
                return EXIT_INVARIANT
        truth = tuple(sorted(scenario.ground_truth))
        if tuple(report.final_suspects) != truth:
            print(f"check: verdict {list(report.final_suspects)} does not match "
                  f"ground truth {list(truth)}")
            return EXIT_INVARIANT
        print("check: verdict matches ground truth; all committed states valid")
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    """Rank the meters on ``--node`` from the reading history.

    Every row is checked: it must carry the interval, meter_id, node and
    reported_kwh columns, with integer interval and node cells and an empty
    or finite reported_kwh, or the command exits 1 whichever node the row
    names. Only rows whose node cell is ``--node`` make up the series, so a
    meter whose rows name two nodes is scored on each node from the rows
    that name it. A repeated (meter, interval) keeps its last row.
    """
    threshold = args.deviation_threshold
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(
            f"deviation threshold must be a positive finite number, got {threshold}")
    scenario = load_scenario(args.scenario)
    base_by_meter = {m.meter_id: m for m in scenario.meters}

    per_meter: dict[str, dict[int, float | None]] = {}
    # Node and interval cells repeat, so each distinct string is read once.
    to_int = functools.cache(int)
    try:
        with open(args.history, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            # A repeated column name reads its last occurrence.
            column = {name: i for i, name in enumerate(next(reader, ()))}
            # interval, meter_id, node and reported_kwh
            required = HISTORY_COLUMNS[:3] + HISTORY_COLUMNS[4:5]
            if not column.keys() >= set(required):
                raise ValueError(
                    f"history CSV must carry columns {sorted(required)}")
            cells = operator.itemgetter(*(column[name] for name in required))
            for k, meter_id, node, reported in map(cells, filter(None, reader)):
                node, k = to_int(node), to_int(k)
                value = None if reported == "" else float(reported)
                if value is not None and not math.isfinite(value):
                    raise ValueError(f"reported_kwh must be finite, got {reported!r}")
                if node == args.node:
                    per_meter.setdefault(meter_id, {})[k] = value
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed history CSV {args.history}: {exc}") from exc

    entries = []
    for meter_id in sorted(per_meter):
        series = per_meter[meter_id]
        window = [series[k] for k in sorted(series)]
        meter = base_by_meter.get(meter_id)
        if meter is None:
            raise ValueError(
                f"meter {meter_id} appears in the history but not in the scenario")
        historical = [meter.base_load_kwh] * max(len(window), 1)
        entries.append(score_window(
            meter_id, args.node, historical, window,
            deviation_threshold=threshold))

    ranked = rank_meters(args.node, entries)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["meter_id", "node", "s_a", "p_a", "index", "rank"])
        for rank, entry in enumerate(ranked, start=1):
            writer.writerow([
                entry.meter_id,
                str(entry.node),
                f"{entry.score.value:.6f}",
                f"{entry.probability.value:.6f}",
                f"{entry.index:.6f}",
                str(rank),
            ])
    print(f"wrote {len(ranked)} meter scores to {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        ("topo", "validate"): cmd_topo_validate,
        ("topo", "matrices"): cmd_topo_matrices,
        ("topo", "energize"): cmd_topo_energize,
        ("sim", "run"): cmd_sim_run,
        ("localize", "run"): cmd_localize_run,
    }
    if args.command == "score":
        handler = cmd_score
    else:
        subcommand = getattr(args, f"{args.command}_command")
        handler = handlers[(args.command, subcommand)]
    try:
        return handler(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DimensionMismatchError, NotABreakerError, UnknownNodeError,
            UnknownFrtuError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasiblePlanError as exc:
        print(f"error: infeasible plan: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OracleInconsistentError as exc:
        print(f"error: contradictory telemetry: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (TopologyError, ZeroAggregateError, GridSleuthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
