"""Switching-plan construction and tamper localization.

Given an alarmed feeder head, the planner reconfigures the network to
shrink the set of customers that could explain the discrepancy. It works
against an oracle (live telemetry or a simulation) that answers one
question: does a given FRTU alarm under given switch states?

Each answer is a reading: the FRTU, its coverage at the states it was
read in, and the alarm bit. Readings go on one append-only log. A clear
reading marks its whole coverage clean. An alarm stays open until its
coverage holds a node resolved as tampered; its suspects are the covered
nodes not yet clean, and an open alarm down to one suspect resolves that
node. An alarm with no suspect left, or a clear reading over a resolved
node, means the telemetry contradicts itself.

Each distinct switch state is labelled once, when it is first validated:
its visit, keyed by the switch vector's bytes as ``Topology.tree`` and the
simulation oracle key it, keeps the rooted tree, every FRTU's coverage and
the bits read there. Load transfers are branch exchanges (Civanlar et
al., 1988; Baran & Wu, 1989): close an open tie (u, v), then open a
sectionalizer s on the loop it makes. In the rooted tree of a radial
state, with the sources collapsed into a virtual root, that loop is the
tree path u -> LCA -> v, and opening s moves exactly the subtree below s
from its feeder to the feeder of the tie's far end. So every candidate
move is scored from subtree counts, without building or validating the
state it would land on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .energize import frtu_coverage
from .errors import (
    InfeasibleIsolationError,
    InfeasiblePlanError,
    NotABreakerError,
    OracleInconsistentError,
)
from .topology import (
    EdgeKind,
    OperatingState,
    StateTree,
    Topology,
    states_to_string,
    validate_operating_state,
)

CLOSE = "close"
OPEN = "open"


@dataclass(frozen=True)
class SwitchingAction:
    step: int
    edge: int
    action: str

    def to_dict(self) -> dict:
        return {"step": self.step, "edge": self.edge, "action": self.action}


@dataclass(frozen=True)
class FrtuCheck:
    after_step: int
    frtu: str
    alarm: bool

    def to_dict(self) -> dict:
        return {"after_step": self.after_step, "frtu": self.frtu, "alarm": self.alarm}


@dataclass
class IslandRecord:
    nodes: frozenset[int]
    opened: tuple[int, ...]
    closed_ties: tuple[int, ...]
    restored: bool = False

    def to_dict(self) -> dict:
        return {
            "nodes": sorted(self.nodes),
            "opened": list(self.opened),
            "closed_ties": list(self.closed_ties),
            "restored": self.restored,
        }


@dataclass(frozen=True)
class LocalizationReport:
    alarm_edge: int
    initial_alarms: dict[str, bool]
    actions: tuple[SwitchingAction, ...]
    checks: tuple[FrtuCheck, ...]
    suspect_history: tuple[tuple[int, ...], ...]
    final_suspects: tuple[int, ...]
    islands: tuple[IslandRecord, ...]
    committed_states: tuple[str, ...]
    constraint_violations: tuple[str, ...]
    irreducible: bool
    log: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "alarm_edge": self.alarm_edge,
            "initial_alarms": dict(sorted(self.initial_alarms.items())),
            "actions": [a.to_dict() for a in self.actions],
            "checks": [c.to_dict() for c in self.checks],
            "suspect_history": [list(s) for s in self.suspect_history],
            "final_suspects": list(self.final_suspects),
            "islands": [i.to_dict() for i in self.islands],
            "committed_states": list(self.committed_states),
            "constraint_violations": list(self.constraint_violations),
            "irreducible": self.irreducible,
            "log": list(self.log),
        }


@dataclass(frozen=True)
class IsolationPlan:
    ops: tuple[tuple[str, int], ...]
    islands: tuple[IslandRecord, ...]
    states_after: np.ndarray


def isolate_dg_islands(topo: Topology, states: np.ndarray) -> IsolationPlan:
    """Plan the cut that puts every DG node on its own microgrid island.

    Each DG node is severed by opening all of its closed edges, so each
    island is its DG node alone. Any source-free, DG-free fragment stranded
    by those cuts is re-fed by closing one open tie toward a powered
    component; ties touching an island are never used. Fragments are taken
    in order of their smallest node id, each with the lowest-numbered tie
    that joins it to a fed component, and the tie is charged to the lowest
    DG whose cut touches the fragment. The cut state's ``StateTree``
    labels its components once, and a set of fed component roots tracks
    what is fed as ties close. Closes are listed before opens so no
    customer goes dark mid-sequence.

    A starting state with dark loads raises ``InfeasibleIsolationError``
    before any tie is chosen: a tie would re-feed them on behalf of an
    island, and restoring that island would darken them again.
    """
    work = topo.check_states(states).copy()
    dg_nodes = sorted(n.id for n in topo.nodes if n.has_dg)
    opened_by: dict[int, list[int]] = {d: [] for d in dg_nodes}
    cut_by: dict[int, int] = {}  # node -> lowest DG whose cut edge touches it
    for dg in dg_nodes:
        for edge in topo.edges:
            if work[edge.id - 1] and dg in (edge.u, edge.v):
                work[edge.id - 1] = 0
                opened_by[dg].append(edge.id)
                cut_by.setdefault(edge.other(dg), dg)

    comp = StateTree.build(topo, work).comp
    fed = {0}  # component roots fed from a source, 0 being the virtual root's
    stranded: dict[int, list[int]] = {}
    for node in topo.nodes:
        root = comp[node.id]
        if root not in fed and not node.has_dg:
            stranded.setdefault(root, []).append(node.id)
    # The cuts open only edges at DG nodes, so a fragment that no cut
    # touches was already a component without a source or a DG: dark.
    dark = sorted(n for nodes in stranded.values()
                  if not any(m in cut_by for m in nodes) for n in nodes)
    if dark:
        raise InfeasibleIsolationError(
            f"loads {dark} are dark before any DG cut; restoring an island "
            f"would leave them dark again")

    tie_for: dict[int, list[int]] = {d: [] for d in dg_nodes}
    for root, nodes in stranded.items():
        tie = next((
            e for e in topo.edges
            if e.kind is EdgeKind.TIE and not work[e.id - 1]
            and not topo.node(e.u).has_dg and not topo.node(e.v).has_dg
            and root in (comp[e.u], comp[e.v])
            and (comp[e.u] in fed or comp[e.v] in fed)
        ), None)
        if tie is None:
            raise InfeasibleIsolationError(
                f"no open tie can re-feed nodes {nodes} once the DG cuts are made")
        work[tie.id - 1] = 1
        fed.add(root)
        tie_for[min(cut_by[n] for n in nodes if n in cut_by)].append(tie.id)

    islands = tuple(
        IslandRecord(
            nodes=frozenset({dg}),
            opened=tuple(sorted(opened_by[dg])),
            closed_ties=tuple(sorted(tie_for[dg])),
        )
        for dg in dg_nodes
    )
    closes = sorted(t for ties in tie_for.values() for t in ties)
    opens = sorted(e for edges in opened_by.values() for e in edges)
    ops = tuple([(CLOSE, e) for e in closes] + [(OPEN, e) for e in opens])
    return IsolationPlan(ops=ops, islands=islands, states_after=work)


def restore_island_ops(island: IslandRecord) -> tuple[tuple[str, int], ...]:
    """Switching sequence that undoes one island's isolation.

    The severed edges re-close before the compensating ties re-open, so
    the customers moved onto the ties never go dark in between.
    """
    return tuple(
        [(CLOSE, e) for e in island.opened] + [(OPEN, e) for e in island.closed_ties]
    )


def _alarm_bit(reply: Mapping[str, bool], frtu: str, key: str) -> bool:
    """One FRTU's alarm bit from an oracle reply; a missing FRTU is an error."""
    try:
        return bool(reply[frtu])
    except KeyError:
        raise OracleInconsistentError(
            f"oracle reply for switch states {key} has no reading for {frtu}") from None


@dataclass
class _Visit:
    """One switch state: its tree and coverages, and the alarm bits read there."""

    tree: StateTree
    coverage: dict[str, frozenset[int]]
    reads: dict[str, bool] = field(default_factory=dict)


class _Planner:
    """Mutable state of one localization run."""

    def __init__(
        self,
        topo: Topology,
        alarm_edge: int,
        oracle: Callable[[np.ndarray], Mapping[str, bool]],
        initial_states: np.ndarray | None,
    ) -> None:
        edge = topo.edge(alarm_edge)
        if edge.kind is not EdgeKind.BREAKER:
            raise NotABreakerError(
                f"alarm edge {alarm_edge} is a {edge.kind.value}, not a feeder breaker")
        self.topo = topo
        self.alarm_edge = alarm_edge
        self.alarm_frtu = topo.frtu_map[alarm_edge]
        self.oracle = oracle
        self.states = topo.check_states(
            topo.normal_states() if initial_states is None else initial_states
        ).copy()
        self.visits: dict[bytes, _Visit] = {}  # by switch vector bytes
        self.here = b""  # the current states' key
        # The evidence: (FRTU, coverage, alarm) per reading, in order, the
        # union of the clear coverages, and the nodes resolved as tampered.
        self.readings: list[tuple[str, frozenset[int], bool]] = []
        self.clean: set[int] = set()
        self.tampered: set[int] = set()
        self.actions: list[SwitchingAction] = []
        self.checks: list[FrtuCheck] = []
        self.history: list[tuple[int, ...]] = []
        self.islands: list[IslandRecord] = []
        self.committed: list[str] = []
        self.log: list[str] = []
        self.irreducible = False

    # --- switch states -------------------------------------------------

    def enter(self) -> OperatingState:
        """Validate and commit to the current states; label them once if valid and new."""
        check = validate_operating_state(self.topo, self.states)
        self.committed.append(states_to_string(self.states))
        self.here = self.states.tobytes()
        if check.ok and self.here not in self.visits:
            self.visits[self.here] = _Visit(
                check.tree, frtu_coverage(self.topo, self.states))
        return check

    @property
    def visit(self) -> _Visit:
        return self.visits[self.here]

    def commit_group(self, ops: Sequence[tuple[str, int]]) -> None:
        """Apply one ordered action group and validate the end state.

        Loops and outages inside the group are transient and allowed; the
        state the group lands on must satisfy the operating rules.
        """
        for op, eid in ops:
            self.states[eid - 1] = 1 if op == CLOSE else 0
            self.actions.append(
                SwitchingAction(step=len(self.actions) + 1, edge=eid, action=op))
            self.log.append(f"step {len(self.actions)}: {op} edge {eid}")
        check = self.enter()
        if not check.ok:
            raise InfeasiblePlanError(
                f"committed switch state {self.committed[-1]} violates operating rules: "
                f"{'; '.join(check.violations)}")

    # --- evidence ------------------------------------------------------

    def consult(self, frtu: str) -> None:
        """Read one FRTU at the current states; only a fresh read is a check."""
        visit = self.visit
        if frtu in visit.reads:
            return
        alarm = _alarm_bit(self.oracle(self.states), frtu, self.committed[-1])
        visit.reads[frtu] = alarm
        self.checks.append(
            FrtuCheck(after_step=len(self.actions), frtu=frtu, alarm=alarm))
        self.log.append(
            f"check {frtu} after step {len(self.actions)}: "
            f"{'ALARM' if alarm else 'clear'}")
        self.record(frtu, visit.coverage[frtu], alarm)

    def record(self, frtu: str, coverage: frozenset[int], alarm: bool) -> None:
        """Check one reading against the evidence, then append it to ``readings``."""
        if alarm:
            if not coverage & self.tampered and coverage <= self.clean:
                raise OracleInconsistentError(
                    f"{frtu} alarms but every covered node is exonerated")
        else:
            hit = coverage & self.tampered
            if hit:
                raise OracleInconsistentError(
                    f"{frtu} reads clear while covering tampered nodes {sorted(hit)}")
            self.clean |= coverage
        self.readings.append((frtu, coverage, alarm))

    def unexplained(self) -> list[tuple[str, frozenset[int]]]:
        """Open alarms, oldest first: each FRTU with its covered nodes not yet clean."""
        return [
            (frtu, coverage - self.clean)
            for frtu, coverage, alarm in self.readings
            if alarm and not coverage & self.tampered
        ]

    def all_suspects(self) -> set[int]:
        """Resolved nodes plus every node an open alarm still points at."""
        return set(self.tampered).union(*(nodes for _, nodes in self.unexplained()))

    def snapshot(self) -> None:
        snap = tuple(sorted(self.all_suspects()))
        if not self.history or self.history[-1] != snap:
            self.history.append(snap)

    def next_alarm(self) -> tuple[str, frozenset[int]] | None:
        """The newest open alarm, once every alarm left with one suspect is resolved.

        None when every alarm is explained; raises when one has no suspect left.
        """
        while True:
            open_alarms = self.unexplained()
            for frtu, nodes in open_alarms:
                if not nodes:
                    raise OracleInconsistentError(
                        f"alarm from {frtu} has no candidate left: every "
                        f"covered node was exonerated")
                if len(nodes) == 1:
                    self.resolve(next(iter(nodes)))
                    break
            else:
                return open_alarms[-1] if open_alarms else None

    def resolve(self, node: int) -> None:
        """Mark one node tampered, then read every FRTU here for leftover alarms.

        That catches a second tampered feeder; reads taken here are replayed.
        """
        self.tampered.add(node)
        self.log.append(f"resolved: node {node} is tampered")
        self.snapshot()
        for frtu in sorted(self.visit.coverage):
            self.consult(frtu)
        self.snapshot()

    # --- check and move selection ------------------------------------

    def counts(self, suspects: frozenset[int],
               coverage: Mapping[str, frozenset[int]]) -> dict[str, tuple[int, int]]:
        """Each FRTU's (suspects, resolved nodes) covered under ``coverage``."""
        tampered = self.tampered
        return {frtu: (len(cov & suspects), len(cov & tampered))
                for frtu, cov in coverage.items()}

    def split_scores(
        self,
        counts: Mapping[str, tuple[int, int]],
        n_suspects: int,
        read: Mapping[str, bool],
        outcome: tuple[int, int, int, int] = (0, 0, 0, 0),
    ) -> Iterator[tuple[float, str]]:
        """(score, FRTU) for each FRTU not in ``read`` whose reading would split the suspects.

        ``counts`` holds each FRTU's (suspects, resolved nodes) covered now.
        ``outcome`` moves a subtree first: (source feeder, destination
        feeder, suspects moved, resolved nodes moved), feeders being breaker
        edge ids and 0 none, so the default moves nothing. A reading narrows
        the alarm only when it covers some of the suspects but not all, and
        no node already resolved as tampered; its score is how far it is
        from halving them.
        """
        src, dst, moved, resolved = outcome
        edges, half = self.topo.frtu_edges, n_suspects / 2
        for frtu, (inside, tampered) in counts.items():
            if frtu in read:
                continue
            eid = edges[frtu]
            if eid == src:
                inside, tampered = inside - moved, tampered - resolved
            if eid == dst:
                inside, tampered = inside + moved, tampered + resolved
            if not tampered and 0 < inside < n_suspects:
                yield abs(inside - half), frtu

    def informative_checks(
        self,
        suspects: frozenset[int],
        coverage: Mapping[str, frozenset[int]],
        read: Mapping[str, bool],
    ) -> list[tuple[float, str]]:
        """FRTUs whose reading would split the suspect set, best first.

        A useful coverage cuts the suspects properly (neither none nor all)
        and contains no already-resolved node, so either answer narrows the
        alarm. FRTUs in ``read``, already read at these states, are
        excluded: their result is on the log and re-reading cannot move
        anything.
        """
        edges = self.topo.frtu_edges
        return sorted(self.split_scores(self.counts(suspects, coverage), len(suspects), read),
                      key=lambda sf: (sf[0], edges[sf[1]]))

    def best_check(self, origin: str, suspects: frozenset[int]) -> str | None:
        """The FRTU to read next at these states, preferring the alarm's own."""
        visit = self.visit
        ranked = self.informative_checks(suspects, visit.coverage, visit.reads)
        if not ranked:
            return None
        best_score = ranked[0][0]
        tied = [frtu for score, frtu in ranked if score == best_score]
        return origin if origin in tied else tied[0]

    def island_nodes(self) -> set[int]:
        return set().union(*(i.nodes for i in self.islands if not i.restored))

    def find_move(self, suspects: frozenset[int]) -> tuple[int, int] | None:
        """Pick the (close, open) branch exchange that best enables a split.

        Closing an open non-breaker edge (u, v) loops two powered paths
        together; opening a closed sectionalizer s on that loop re-radializes
        the network. In the current state's rooted tree the loop is the path
        u -> LCA -> v, and opening s moves exactly the subtree below s onto
        the feeder of the other endpoint. Every such pair lands on a radial
        state that feeds every load, so it needs no validation. Its FRTU
        coverages differ from today's only by that subtree, so a pair's
        outcome is its key: (source feeder, destination feeder, suspects
        moved, resolved nodes moved). A pair counts only if some FRTU not
        yet read at its landing state would then split the suspects; the
        lowest (split score, s, edge to close) wins.

        The visited states one branch exchange away, those whose switch
        vector differs from the current one in exactly one open and one
        closed edge, are found once per call and keyed by edge to close,
        then edge to open. A pair landing on one of them is scored against the
        reads taken there. The others score alike whenever their outcomes
        match, so each outcome is scored once. Returns (edge_to_close,
        edge_to_open) or None.
        """
        frozen = self.island_nodes()
        visit = self.visit
        tampered = self.tampered
        counts = self.counts(suspects, visit.coverage)
        n_suspects = len(suspects)
        tree = visit.tree
        feeder = tree.feeder
        suspects_below = tree.count_below(suspects)
        # Nodes are seldom resolved while a move is sought: skip a zero pass.
        tampered_below = tree.count_below(tampered) if tampered else [0] * len(feeder)
        sectionalizer = self.topo.sectionalizers
        states = self.states.tolist()
        near: dict[int, dict[int, Mapping[str, bool]]] = {}
        for key, landing in self.visits.items():
            flipped = (np.frombuffer(key, np.uint8) != self.states).nonzero()[0].tolist()
            if len(flipped) == 2 and states[flipped[0]] != states[flipped[1]]:
                to_close, to_open = sorted(flipped, key=states.__getitem__)
                near.setdefault(to_close + 1, {})[to_open + 1] = landing.reads
        unread: dict[tuple[int, int, int, int], float | None] = {}  # score per outcome
        best: tuple[float, int, int] | None = None
        for cand in self.topo.edges:
            tie = cand.id
            if states[tie - 1] or cand.kind is EdgeKind.BREAKER:
                continue
            if cand.u in frozen or cand.v in frozen:
                continue
            visited = near.get(tie, {})
            for sec, below, far in tree.loop(cand.u, cand.v):
                if not sectionalizer[sec]:
                    continue
                outcome = (feeder[below], feeder[far],
                           suspects_below[below], tampered_below[below])
                read = visited.get(sec)
                if read is not None:
                    score = self._move_score(counts, n_suspects, outcome, read)
                else:
                    score = unread.get(outcome, unread)  # unread itself: not scored yet
                    if score is unread:
                        score = unread[outcome] = self._move_score(
                            counts, n_suspects, outcome, {})
                if score is not None and (best is None or (score, sec, tie) < best):
                    best = (score, sec, tie)
        return None if best is None else (best[2], best[1])

    def _move_score(
        self,
        counts: Mapping[str, tuple[int, int]],
        n_suspects: int,
        outcome: tuple[int, int, int, int],
        read: Mapping[str, bool],
    ) -> float | None:
        """Best split score once a branch exchange with this ``outcome`` is made."""
        return min(self.split_scores(counts, n_suspects, read, outcome), default=(None,))[0]

    def restore_and_check(self) -> bool:
        """Fold an island back into the grid when progress stalls, and read it.

        An island can block progress two ways: its nodes are suspects no
        FRTU can meter, or its cut lines and claimed ties sit on every
        reconfiguration path. Folding one back is always safe (the landing
        state is validated) and each island folds back at most once, so
        this cannot loop. False when every island is already back.
        """
        candidates = [i for i in self.islands if not i.restored]
        if not candidates:
            return False
        island = min(candidates, key=lambda i: min(i.nodes))
        self.log.append(
            f"restore island {sorted(island.nodes)} to discriminate suspects")
        self.commit_group(restore_island_ops(island))
        island.restored = True
        covering = [frtu for frtu, cov in sorted(self.visit.coverage.items())
                    if cov & island.nodes]
        if not covering:
            raise InfeasiblePlanError(
                f"restored island {sorted(island.nodes)} is not covered by any FRTU")
        self.consult(covering[0])
        self.snapshot()
        return True

    # --- main loop ----------------------------------------------------

    def report(self, final: Iterable[int]) -> LocalizationReport:
        return LocalizationReport(
            alarm_edge=self.alarm_edge,
            # The starting state is valid, so it was the first visit.
            initial_alarms=dict(next(iter(self.visits.values())).reads),
            actions=tuple(self.actions),
            checks=tuple(self.checks),
            suspect_history=tuple(self.history),
            final_suspects=tuple(sorted(final)),
            islands=tuple(self.islands),
            committed_states=tuple(self.committed),
            constraint_violations=(),
            irreducible=self.irreducible,
            log=tuple(self.log),
        )

    def run(self) -> LocalizationReport:
        baseline = self.enter()
        if not baseline.ok:
            raise InfeasiblePlanError(
                "starting switch state violates operating rules: "
                + "; ".join(baseline.violations))

        # Continuous telemetry: every FRTU's alarm bit is already on the
        # operator's board before any switching, so this sweep is free.
        first = self.visit
        readings0 = self.oracle(self.states)
        for frtu in sorted(first.coverage):
            first.reads[frtu] = _alarm_bit(readings0, frtu, self.committed[0])
        if not first.reads.get(self.alarm_frtu, False):
            # Telemetry is quiet on the requested feeder: nothing to chase.
            self.log.append(
                f"{self.alarm_frtu} (edge {self.alarm_edge}) reads clear; "
                f"no localization needed")
            return self.report(())
        self.log.append(
            "initial alarms: "
            + ", ".join(f"{f}={'ALARM' if a else 'clear'}"
                        for f, a in sorted(first.reads.items())))

        # The suspect set starts as the alarmed FRTU's coverage: exactly
        # the customers it meters. DG-island loads are in no coverage.
        self.history.append(tuple(sorted(first.coverage[self.alarm_frtu])))
        for frtu in sorted(first.coverage):
            self.record(frtu, first.coverage[frtu], first.reads[frtu])

        plan = isolate_dg_islands(self.topo, self.states)
        self.islands = list(plan.islands)
        if plan.ops:
            self.log.append(
                "isolate DG islands: "
                + ", ".join(f"{sorted(i.nodes)}" for i in plan.islands))
            self.commit_group(plan.ops)

        guard = 4 * (self.topo.n_nodes + self.topo.n_edges) + 16
        for _ in range(guard):
            alarm = self.next_alarm()
            if alarm is None:
                break
            origin, suspects = alarm
            frtu = self.best_check(origin, suspects)
            if frtu is not None:
                self.consult(frtu)
                self.snapshot()
                continue
            move = self.find_move(suspects)
            if move is not None:
                to_close, to_open = move
                self.log.append(
                    f"transfer load: close edge {to_close}, open edge {to_open}")
                self.commit_group(((CLOSE, to_close), (OPEN, to_open)))
                continue
            if self.restore_and_check():
                continue
            self.irreducible = True
            self.log.append(
                "no further reading can split the remaining suspects: "
                + str(sorted(suspects)))
            break
        else:
            raise InfeasiblePlanError("localization failed to converge")

        final = self.all_suspects() if self.irreducible else set(self.tampered)
        self.snapshot()
        self.log.append(f"verdict: tampered node(s) {sorted(final)}")
        return self.report(final)


def localize(
    topo: Topology,
    alarm_edge: int,
    oracle: Callable[[np.ndarray], Mapping[str, bool]],
    *,
    initial_states: np.ndarray | None = None,
) -> LocalizationReport:
    """Localize the customers behind a feeder-level discrepancy alarm.

    ``oracle`` maps a switch-state vector to per-FRTU alarm flags; in
    production that is live telemetry, in tests a metering simulation.
    The returned report carries the switching plan, every telemetry check
    it spent, and how the suspect set narrowed to the final answer.
    """
    return _Planner(topo, alarm_edge, oracle, initial_states).run()
