"""Replay a localization report against its own readings, outside the planner.

``replay(report, topo)`` rebuilds the reading log from a report's
``to_dict()`` and the topology alone. It applies the report's ``actions``
from the normal state, takes the board's coverage (``initial_alarms``) at
step 0 and each check's coverage at the state after its ``after_step``,
and decodes that log with the DD rule of group testing: a clear reading
cleans its coverage; an alarm whose coverage has one node left unclean
names that node tampered; an alarm holding no tampered node stays open.
The verdict is the tampered nodes, plus the open alarms' unclean nodes
when the report is ``irreducible``, or ``()`` when the requested FRTU
reads clear on the board. Agreement with ``final_suspects`` means the
verdict follows from the log by that documented rule.

``presumed_clean`` lists the nodes of an alarmed coverage that the verdict
leaves out although no clear reading covers them: the DD rule presumes
them clean, so they are where a verdict could miss a tampered node.

Run from the repository root to replay the benchmark's reports at seeds
401-410 (``report_hashes.results``); it exits 1 on any disagreement:

    PYTHONPATH=src python tests/replay.py
"""

import sys

from gridsleuth.energize import frtu_coverage
from gridsleuth.topology import Topology


def readings(report: dict, topo: Topology) -> list[tuple[str, frozenset[int], bool]]:
    """(FRTU, coverage, alarm) of the board at step 0, then of each check."""
    steps = {0} | {check["after_step"] for check in report["checks"]}
    states = topo.normal_states().copy()
    coverage = {0: frtu_coverage(topo, states)}
    for action in report["actions"]:
        states[action["edge"] - 1] = action["action"] == "close"
        if action["step"] in steps:
            coverage[action["step"]] = frtu_coverage(topo, states)
    board = [(frtu, coverage[0][frtu], alarm)
             for frtu, alarm in sorted(report["initial_alarms"].items())]
    return board + [(check["frtu"], coverage[check["after_step"]][check["frtu"]],
                     check["alarm"]) for check in report["checks"]]


def decode(log):
    """(clean nodes, tampered nodes, open alarms' unclean nodes) by the DD rule."""
    clean = set().union(*(coverage for _, coverage, alarm in log if not alarm))
    unclean = [coverage - clean for _, coverage, alarm in log if alarm]
    tampered = set().union(*(nodes for nodes in unclean if len(nodes) == 1))
    return clean, tampered, [nodes for nodes in unclean if not nodes & tampered]


def replay(report: dict, topo: Topology) -> tuple[int, ...]:
    """The verdict that ``report``'s own readings give by the DD rule."""
    if not report["initial_alarms"].get(topo.frtu_map[report["alarm_edge"]], False):
        return ()
    _, tampered, open_alarms = decode(readings(report, topo))
    if report["irreducible"]:
        tampered = tampered.union(*open_alarms)
    return tuple(sorted(tampered))


def presumed_clean(report: dict, topo: Topology) -> set[int]:
    """Nodes of an alarmed coverage in neither the verdict nor a clear coverage."""
    log = readings(report, topo)
    clean = decode(log)[0]
    alarmed = set().union(*(coverage for _, coverage, alarm in log if alarm))
    return alarmed - clean - set(report["final_suspects"])


def main() -> int:
    import report_hashes

    reports = disagree = errors = with_presumed = 0
    for prep, result in report_hashes.results():
        if isinstance(result, Exception):
            errors += 1
            continue
        report = result.to_dict()
        reports += 1
        got = replay(report, prep.topology)
        if got != tuple(report["final_suspects"]):
            disagree += 1
            print(f"{prep.episode.name}: replay gives {list(got)}, "
                  f"report {report['final_suspects']}")
        with_presumed += bool(presumed_clean(report, prep.topology))
    print(f"{reports} reports replayed ({errors} raised), {disagree} disagree; "
          f"{with_presumed} leave a presumed-clean node")
    return 1 if disagree or not reports else 0


if __name__ == "__main__":
    sys.exit(main())
