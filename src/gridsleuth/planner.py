"""Switching-plan construction and tamper localization.

Given an alarmed feeder head, the planner reconfigures the network to
shrink the set of customers that could explain the discrepancy. It works
against an oracle (live telemetry or a simulation) that answers one
question: does a given FRTU alarm under given switch states?

Each answer is a reading: the FRTU, its coverage at the states it was
read in, and the alarm bit. Readings go on one append-only log, and one
pure function, ``decode``, reads it with the DD rule of group testing: a
clear reading marks its whole coverage clean, and an alarm stays open
until its coverage holds a node resolved as tampered; its suspects are the
covered nodes not yet clean. The log is decoded once after each batch of
reads (the board, a check, a resolved node's sweep, a fold-back), and the
planner's loop works from those open alarms: it resolves each alarm left
with one suspect, then splits the newest. An alarm with no suspect left,
or a clear reading over a resolved node, means the telemetry contradicts
itself.

Each distinct switch state is labelled once, when it is first validated,
and the oracle is asked about it at most once, on its first read: its
visit, keyed by the switch vector's bytes as ``Topology.tree`` keys it,
keeps the rooted tree, every FRTU's coverage, the oracle's reply and the
bits read from it. Load transfers are branch exchanges (Civanlar et
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
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence

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
    DG whose cut touches the fragment. The cut state's components come
    from its one labelling, ``Topology.tree`` (so a cut that opens nothing
    reuses the starting state's), and a set of fed component roots tracks
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

    comp = topo.tree(work).comp  # the tree copies work, so closing ties below leaves it be
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


Reading = tuple[str, frozenset[int], bool]  # (FRTU, coverage, alarm)
Alarm = tuple[str, frozenset[int]]  # (FRTU, suspects)


def decode(readings: Iterable[Reading], tampered: AbstractSet[int]) -> list[Alarm]:
    """The alarms that ``tampered`` leaves open, oldest first, with their suspects.

    One pass over the log in order: a clear reading cleans its coverage,
    and an alarm whose coverage holds no tampered node stays open with its
    covered nodes not clean by the end of the log. Raises at the first
    reading that contradicts what came before it: an alarm whose whole
    coverage is already clean, or a clear reading over a tampered node.
    """
    clean: set[int] = set()
    alarms: list[tuple[str, frozenset[int]]] = []
    for frtu, coverage, alarm in readings:
        if not alarm:
            hit = coverage & tampered
            if hit:
                raise OracleInconsistentError(
                    f"{frtu} reads clear while covering tampered nodes {sorted(hit)}")
            clean |= coverage
        elif not coverage & tampered:
            if coverage <= clean:
                raise OracleInconsistentError(
                    f"{frtu} alarms but every covered node is exonerated")
            alarms.append((frtu, coverage))
    return [(frtu, coverage - clean) for frtu, coverage in alarms]


@dataclass
class _Visit:
    """One switch state: its tree and coverages, the oracle's one reply there
    (asked for on the first read), and the alarm bits read from it."""

    tree: StateTree
    coverage: dict[str, frozenset[int]]
    reads: dict[str, bool] = field(default_factory=dict)
    reply: Mapping[str, bool] | None = None


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
        self.visit: _Visit  # the current states' visit, set by ``enter``
        # The evidence: every reading, in order, and the nodes resolved as
        # tampered; ``decode`` reads the two.
        self.readings: list[Reading] = []
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
        if check.ok:
            key = self.states.tobytes()
            if key not in self.visits:
                self.visits[key] = _Visit(check.tree, frtu_coverage(self.topo, self.states))
            self.visit = self.visits[key]
        return check

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

    def read(self, frtu: str) -> bool:
        """Read one FRTU here, asking the oracle once per state; append it to ``readings``."""
        visit = self.visit
        if visit.reply is None:
            visit.reply = self.oracle(self.states)
        try:
            alarm = bool(visit.reply[frtu])
        except KeyError:
            raise OracleInconsistentError(
                f"oracle reply for switch states {self.committed[-1]} "
                f"has no reading for {frtu}") from None
        visit.reads[frtu] = alarm
        self.readings.append((frtu, visit.coverage[frtu], alarm))
        return alarm

    def consult(self, frtu: str) -> None:
        """Read one FRTU at the current states; only a fresh read is a check."""
        if frtu in self.visit.reads:
            return
        alarm = self.read(frtu)
        self.checks.append(
            FrtuCheck(after_step=len(self.actions), frtu=frtu, alarm=alarm))
        self.log.append(
            f"check {frtu} after step {len(self.actions)}: "
            f"{'ALARM' if alarm else 'clear'}")

    def snapshot(self, open_alarms: Sequence[Alarm]) -> None:
        """Record the suspects: resolved nodes plus every node ``open_alarms`` point at."""
        snap = tuple(sorted(self.tampered.union(*(nodes for _, nodes in open_alarms))))
        if not self.history or self.history[-1] != snap:
            self.history.append(snap)

    def decode_log(self) -> list[Alarm]:
        """Decode the log after a batch of reads, record its suspects, return its open alarms."""
        open_alarms = decode(self.readings, self.tampered)
        self.snapshot(open_alarms)
        return open_alarms

    def resolve(self, node: int, open_alarms: Sequence[Alarm]) -> list[Alarm]:
        """Mark one suspect of ``open_alarms`` tampered, then read every FRTU here.

        That catches a second tampered feeder; reads taken here are replayed.
        The suspects before the reads need no decode: ``node`` is a suspect,
        so no clear reading covers it, and the log decoded with it resolved
        leaves open exactly the alarms of ``open_alarms`` that do not suspect
        it. Returns the open alarms after the reads.
        """
        self.tampered.add(node)
        self.log.append(f"resolved: node {node} is tampered")
        self.snapshot([(frtu, nodes) for frtu, nodes in open_alarms if node not in nodes])
        for frtu in sorted(self.visit.coverage):
            self.consult(frtu)
        return self.decode_log()

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

    def best_check(self, origin: str, suspects: frozenset[int]) -> str | None:
        """The unread FRTU here that best splits the suspects, or None.

        Ties go to the alarm's own FRTU, then to the lowest breaker id.
        """
        visit, edges = self.visit, self.topo.frtu_edges
        best = min(
            self.split_scores(self.counts(suspects, visit.coverage), len(suspects), visit.reads),
            key=lambda sf: (sf[0], sf[1] != origin, edges[sf[1]]), default=None)
        return None if best is None else best[1]

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
        for frtu in sorted(first.coverage):
            self.read(frtu)
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
        # A contradiction on the board is named before any switching.
        open_alarms = decode(self.readings, self.tampered)

        plan = isolate_dg_islands(self.topo, self.states)
        self.islands = list(plan.islands)
        if plan.ops:
            self.log.append(
                "isolate DG islands: "
                + ", ".join(f"{sorted(i.nodes)}" for i in plan.islands))
            self.commit_group(plan.ops)

        # ``open_alarms`` is always the decoded log: it is decoded again
        # after each batch of reads, and a move reads nothing.
        guard = 4 * (self.topo.n_nodes + self.topo.n_edges) + 16
        for _ in range(guard):
            # Resolve the oldest alarm left with one suspect until none is.
            while single := next((a for a in open_alarms if len(a[1]) <= 1), None):
                frtu, nodes = single
                if not nodes:
                    raise OracleInconsistentError(
                        f"alarm from {frtu} has no candidate left: every "
                        f"covered node was exonerated")
                open_alarms = self.resolve(next(iter(nodes)), open_alarms)
            if not open_alarms:
                break  # every alarm is explained
            origin, suspects = open_alarms[-1]
            frtu = self.best_check(origin, suspects)
            if frtu is not None:
                self.consult(frtu)
                open_alarms = self.decode_log()
                continue
            move = self.find_move(suspects)
            if move is not None:
                to_close, to_open = move
                self.log.append(
                    f"transfer load: close edge {to_close}, open edge {to_open}")
                self.commit_group(((CLOSE, to_close), (OPEN, to_open)))
                continue
            if self.restore_and_check():
                open_alarms = self.decode_log()
                continue
            self.irreducible = True
            self.log.append(
                "no further reading can split the remaining suspects: "
                + str(sorted(suspects)))
            break
        else:
            raise InfeasiblePlanError("localization failed to converge")

        # The resolved nodes, and the open alarms' suspects if irreducible.
        self.snapshot(open_alarms)
        final = self.history[-1]
        self.log.append(f"verdict: tampered node(s) {list(final)}")
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
