"""Switching-plan construction and tamper localization.

Given an alarmed feeder head, the planner reconfigures the network to
shrink the set of customers that could explain the discrepancy. It works
against an oracle (live telemetry or a simulation) that answers one
question: does a given FRTU alarm under given switch states?

The bookkeeping revolves around three sets. ``E`` holds exonerated nodes:
every clear reading exonerates the full coverage of that FRTU. ``T`` holds
nodes resolved as tampered. Every alarm reading raises an obligation, the
coverage that must contain at least one tampered node; an obligation is
discharged once it contains a member of ``T``, and if exonerations ever
empty an undischarged obligation the telemetry contradicts itself.

Each switch state is labelled once per question: the planner keeps every
FRTU's coverage, and the rooted tree its validation built, per distinct
state it visits. Load transfers are branch
exchanges (Civanlar et al., 1988; Baran & Wu, 1989): close an open tie
(u, v), then open a sectionalizer s on the loop it makes. In the rooted
tree of a radial state, with the sources collapsed into a virtual root,
that loop is the tree path u -> LCA -> v, and opening s moves exactly the
subtree below s from its feeder to the feeder of the tie's far end. So
every candidate move is scored from subtree counts, without building or
validating the state it would land on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

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


@dataclass
class _Obligation:
    """One alarmed reading awaiting an explanation."""

    origin: str
    nodes: frozenset[int]
    explained: bool = False

    def active(self, exonerated: set[int]) -> frozenset[int]:
        return self.nodes - exonerated


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


def _split_score(inside: int, tampered: int, n_suspects: int) -> float | None:
    """How far a reading covering ``inside`` of the suspects is from halving them.

    None when the reading cannot narrow the obligation: it covers none of
    the suspects or all of them, or it covers a node already resolved as
    tampered.
    """
    if tampered or not 0 < inside < n_suspects:
        return None
    return abs(inside - n_suspects / 2)


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
        self.exonerated: set[int] = set()
        self.tampered: set[int] = set()
        self.obligations: list[_Obligation] = []
        # Alarm bits already read, by switch-state string, then FRTU.
        self.consulted: dict[str, dict[str, bool]] = {}
        self.coverages: dict[str, dict[str, frozenset[int]]] = {}
        # Rooted labelling of each validated state, by switch-state string.
        self.trees: dict[str, StateTree] = {}
        self.actions: list[SwitchingAction] = []
        self.checks: list[FrtuCheck] = []
        self.history: list[tuple[int, ...]] = []
        self.islands: list[IslandRecord] = []
        self.committed: list[str] = []
        self.log: list[str] = []
        self.initial_alarms: dict[str, bool] = {}
        self.irreducible = False

    # --- telemetry ---------------------------------------------------

    def consult(self, frtu: str) -> None:
        """Read one FRTU's alarm bit at the current states and fold it in.

        Only a fresh read counts as a check and moves the bookkeeping; a
        pair already read at this exact configuration is just replayed.
        """
        key = states_to_string(self.states)
        reads = self.consulted.setdefault(key, {})
        if frtu in reads:
            return
        alarm = _alarm_bit(self.oracle(self.states), frtu, key)
        reads[frtu] = alarm
        self.record_check(frtu, alarm)
        self.process_reading(frtu, alarm, self.coverage()[frtu])

    def coverage(self) -> dict[str, frozenset[int]]:
        """Every FRTU's coverage at the current states, computed once per state."""
        key = states_to_string(self.states)
        if key not in self.coverages:
            self.coverages[key] = frtu_coverage(self.topo, self.states)
        return self.coverages[key]

    def tree(self) -> StateTree:
        """The current state's tree, from its validation (run here if never run)."""
        key = states_to_string(self.states)
        if key not in self.trees:
            self.trees[key] = validate_operating_state(self.topo, self.states).tree
        return self.trees[key]

    def record_check(self, frtu: str, alarm: bool) -> None:
        self.checks.append(
            FrtuCheck(after_step=len(self.actions), frtu=frtu, alarm=alarm))
        self.log.append(
            f"check {frtu} after step {len(self.actions)}: "
            f"{'ALARM' if alarm else 'clear'}")

    def process_reading(self, frtu: str, alarm: bool, coverage: frozenset[int]) -> None:
        if alarm:
            if coverage & self.tampered:
                return
            if not coverage - self.exonerated:
                raise OracleInconsistentError(
                    f"{frtu} alarms but every covered node is exonerated")
            self.obligations.append(_Obligation(origin=frtu, nodes=coverage))
        else:
            hit = coverage & self.tampered
            if hit:
                raise OracleInconsistentError(
                    f"{frtu} reads clear while covering tampered nodes {sorted(hit)}")
            self.exonerated |= coverage

    # --- switching ---------------------------------------------------

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
        key = states_to_string(self.states)
        check = validate_operating_state(self.topo, self.states)
        self.trees[key] = check.tree
        self.committed.append(key)
        if not check.ok:
            raise InfeasiblePlanError(
                f"committed switch state {key} violates operating rules: "
                f"{'; '.join(check.violations)}")

    # --- suspect bookkeeping -----------------------------------------

    def active_union(self) -> set[int]:
        out: set[int] = set()
        for ob in self.obligations:
            if not ob.explained:
                out |= ob.active(self.exonerated)
        return out

    def snapshot(self) -> None:
        snap = tuple(sorted(self.active_union() | self.tampered))
        if not self.history or self.history[-1] != snap:
            self.history.append(snap)

    def settle_obligations(self) -> _Obligation | None:
        """Discharge, fail, or pick the obligation to work on next.

        Returns the newest undischarged obligation, or None when every
        alarm is explained. Raises when exonerations emptied one.
        """
        while True:
            resolved_one = False
            pending: _Obligation | None = None
            for ob in self.obligations:
                if ob.explained:
                    continue
                if ob.nodes & self.tampered:
                    ob.explained = True
                    continue
                active = ob.active(self.exonerated)
                if not active:
                    raise OracleInconsistentError(
                        f"alarm from {ob.origin} has no candidate left: every "
                        f"covered node was exonerated")
                if len(active) == 1:
                    node = next(iter(active))
                    self.resolve(node)
                    resolved_one = True
                    break
                pending = ob
            if resolved_one:
                continue
            return pending

    def resolve(self, node: int) -> None:
        self.tampered.add(node)
        self.log.append(f"resolved: node {node} is tampered")
        for ob in self.obligations:
            if not ob.explained and ob.nodes & self.tampered:
                ob.explained = True
        self.snapshot()
        self.scan_all_frtus()

    def scan_all_frtus(self) -> None:
        """Sweep every FRTU at the current states for leftover alarms.

        Catches a second tampered feeder once the first explanation lands.
        Reads already taken at this configuration are replayed for free.
        """
        for frtu in sorted(self.coverage()):
            self.consult(frtu)
        self.snapshot()

    # --- check and move selection ------------------------------------

    def informative_checks(
        self,
        suspects: frozenset[int],
        coverage: Mapping[str, frozenset[int]],
        read: Mapping[str, bool],
    ) -> list[tuple[float, str]]:
        """FRTUs whose reading would split the suspect set, best first.

        A useful coverage cuts the suspects properly (neither none nor all)
        and contains no already-resolved node, so either answer narrows the
        obligation. FRTUs in ``read``, already read at these states, are
        excluded: their result is folded in and re-reading cannot move
        anything.
        """
        out: list[tuple[float, str]] = []
        for frtu, cov in coverage.items():
            if frtu in read:
                continue
            score = _split_score(len(cov & suspects), len(cov & self.tampered),
                                 len(suspects))
            if score is not None:
                out.append((score, frtu))
        out.sort(key=lambda sf: (sf[0], self.topo.frtu_edges[sf[1]]))
        return out

    def best_check(self, ob: _Obligation) -> str | None:
        suspects = ob.active(self.exonerated)
        read = self.consulted.get(states_to_string(self.states), {})
        ranked = self.informative_checks(suspects, self.coverage(), read)
        if not ranked:
            return None
        best_score = ranked[0][0]
        tied = [frtu for score, frtu in ranked if score == best_score]
        if ob.origin in tied:
            return ob.origin
        return tied[0]

    def island_nodes(self) -> set[int]:
        out: set[int] = set()
        for island in self.islands:
            if not island.restored:
                out |= island.nodes
        return out

    def find_move(self, ob: _Obligation) -> tuple[int, int] | None:
        """Pick the (close, open) branch exchange that best enables a split.

        Closing an open non-breaker edge (u, v) loops two powered paths
        together; opening a closed sectionalizer s on that loop re-radializes
        the network. In the current state's rooted tree the loop is the path
        u -> LCA -> v, and opening s moves exactly the subtree below s onto
        the feeder of the other endpoint. Every such pair lands on a radial
        state that feeds every load, so it needs no validation. Its FRTU
        coverages differ from today's only by that subtree, so each pair is
        scored from subtree counts of suspects and resolved nodes. A pair
        counts only if some FRTU not yet read at its landing state would
        then split the obligation; the lowest (split score, s, edge to
        close) wins. Returns (edge_to_close, edge_to_open) or None.
        """
        suspects = ob.active(self.exonerated)
        frozen = self.island_nodes()
        counts = {
            frtu: (len(cov & suspects), len(cov & self.tampered))
            for frtu, cov in self.coverage().items()
        }
        tree = self.tree()
        suspects_below = tree.count_below(suspects)
        tampered_below = tree.count_below(self.tampered)
        read_after = self.reads_one_move_away()
        best: tuple[float, int, int] | None = None
        for cand in self.topo.edges:
            if self.states[cand.id - 1] or cand.kind is EdgeKind.BREAKER:
                continue
            if cand.u in frozen or cand.v in frozen:
                continue
            for sec, below, far in tree.loop(cand.u, cand.v):
                if not sec or self.topo.edges[sec - 1].kind is not EdgeKind.SECTIONALIZER:
                    continue
                score = self._move_score(
                    counts, len(suspects), tree.feeder[below], tree.feeder[far],
                    suspects_below[below], tampered_below[below],
                    read_after.get((cand.id, sec), {}))
                if score is None:
                    continue
                entry = (score, sec, cand.id)
                if best is None or entry < best:
                    best = entry
        if best is None:
            return None
        return best[2], best[1]

    def _move_score(
        self,
        counts: Mapping[str, tuple[int, int]],
        n_suspects: int,
        src: int,
        dst: int,
        moved_suspects: int,
        moved_tampered: int,
        read: Mapping[str, bool],
    ) -> float | None:
        """Best split score after a subtree moves from feeder ``src`` to ``dst``.

        ``counts`` holds each FRTU's (suspects, resolved nodes) covered now;
        feeders are breaker edge ids, 0 for none.
        """
        best: float | None = None
        for frtu, (inside, tampered) in counts.items():
            if frtu in read:
                continue
            eid = self.topo.frtu_edges[frtu]
            if eid == src:
                inside -= moved_suspects
                tampered -= moved_tampered
            if eid == dst:
                inside += moved_suspects
                tampered += moved_tampered
            score = _split_score(inside, tampered, n_suspects)
            if score is not None and (best is None or score < best):
                best = score
        return best

    def reads_one_move_away(self) -> dict[tuple[int, int], dict[str, bool]]:
        """Reads taken at states one branch exchange from the current one.

        Keyed by (edge closed, edge opened) relative to the current states.
        """
        here = self.states
        out: dict[tuple[int, int], dict[str, bool]] = {}
        for key, reads in self.consulted.items():
            there = np.frombuffer(key.encode("ascii"), dtype=np.uint8) - ord("0")
            diff = np.flatnonzero(there != here)
            closed = diff[here[diff] == 0]
            opened = diff[here[diff] == 1]
            if len(closed) == 1 and len(opened) == 1:
                out[(int(closed[0]) + 1, int(opened[0]) + 1)] = reads
        return out

    def find_restoration(self) -> IslandRecord | None:
        """Pick an island to fold back into the grid when progress stalls.

        An island can block progress two ways: its nodes are suspects no
        FRTU can meter, or its cut lines and claimed ties sit on every
        reconfiguration path. Folding one back is always safe (the landing
        state is validated) and each island folds back at most once, so
        this cannot loop.
        """
        candidates = [i for i in self.islands if not i.restored]
        if not candidates:
            return None
        return min(candidates, key=lambda i: min(i.nodes))

    def restore_and_check(self, island: IslandRecord) -> None:
        self.log.append(
            f"restore island {sorted(island.nodes)} to discriminate suspects")
        self.commit_group(restore_island_ops(island))
        island.restored = True
        covering = [
            frtu for frtu, cov in sorted(self.coverage().items()) if cov & island.nodes
        ]
        if not covering:
            raise InfeasiblePlanError(
                f"restored island {sorted(island.nodes)} is not covered by any FRTU")
        self.consult(covering[0])
        self.snapshot()

    # --- main loop ----------------------------------------------------

    def report(self, final: Iterable[int]) -> LocalizationReport:
        return LocalizationReport(
            alarm_edge=self.alarm_edge,
            initial_alarms=dict(self.initial_alarms),
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
        key0 = states_to_string(self.states)
        baseline = validate_operating_state(self.topo, self.states)
        if not baseline.ok:
            raise InfeasiblePlanError(
                "starting switch state violates operating rules: "
                + "; ".join(baseline.violations))
        self.trees[key0] = baseline.tree
        self.committed.append(key0)

        # Continuous telemetry: every FRTU's alarm bit is already on the
        # operator's board before any switching, so this sweep is free.
        coverage0 = self.coverage()
        readings0 = self.oracle(self.states)
        reads0 = self.consulted.setdefault(key0, {})
        for frtu in sorted(coverage0):
            alarm = _alarm_bit(readings0, frtu, key0)
            self.initial_alarms[frtu] = alarm
            reads0[frtu] = alarm
        if not self.initial_alarms.get(self.alarm_frtu, False):
            # Telemetry is quiet on the requested feeder: nothing to chase.
            self.log.append(
                f"{self.alarm_frtu} (edge {self.alarm_edge}) reads clear; "
                f"no localization needed")
            return self.report(())
        self.log.append(
            "initial alarms: "
            + ", ".join(f"{f}={'ALARM' if a else 'clear'}"
                        for f, a in sorted(self.initial_alarms.items())))

        # The suspect set starts as the alarmed FRTU's coverage: exactly
        # the customers it meters. DG-island loads are in no coverage.
        self.history.append(tuple(sorted(coverage0[self.alarm_frtu])))
        for frtu in sorted(coverage0):
            self.process_reading(frtu, self.initial_alarms[frtu], coverage0[frtu])

        plan = isolate_dg_islands(self.topo, self.states)
        self.islands = list(plan.islands)
        if plan.ops:
            self.log.append(
                "isolate DG islands: "
                + ", ".join(f"{sorted(i.nodes)}" for i in plan.islands))
            self.commit_group(plan.ops)

        guard = 4 * (self.topo.n_nodes + self.topo.n_edges) + 16
        for _ in range(guard):
            ob = self.settle_obligations()
            if ob is None:
                break
            frtu = self.best_check(ob)
            if frtu is not None:
                self.consult(frtu)
                self.snapshot()
                continue
            move = self.find_move(ob)
            if move is not None:
                to_close, to_open = move
                self.log.append(
                    f"transfer load: close edge {to_close}, open edge {to_open}")
                self.commit_group(((CLOSE, to_close), (OPEN, to_open)))
                continue
            island = self.find_restoration()
            if island is not None:
                self.restore_and_check(island)
                continue
            self.irreducible = True
            self.log.append(
                "no further reading can split the remaining suspects: "
                + str(sorted(ob.active(self.exonerated))))
            break
        else:
            raise InfeasiblePlanError("localization failed to converge")

        final = set(self.tampered)
        if self.irreducible:
            final |= self.active_union()
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
