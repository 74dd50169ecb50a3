"""Move search by tree arithmetic against the trial-and-error reference.

``reference_find_move`` is the brute-force branch-exchange search: for every
open non-breaker edge and every closed sectionalizer on the loop it would
close, build the landing state, validate it, recompute every FRTU's
coverage and rank the checks there. ``_Planner.find_move`` must pick the
same (close, open) pair from subtree counts alone.
"""

from collections import deque
from functools import cached_property

import numpy as np
import pytest

from episode_fuzz import make_mesh, two_feeder_chain
from gridsleuth import energize, metering, planner, topology
from gridsleuth.energize import energized_nodes, frtu_coverage
from gridsleuth.metering import CustomerMeter, SimulationOracle, Tamper, TamperKind
from gridsleuth.planner import _Planner, _Visit, isolate_dg_islands, localize
from gridsleuth.topology import (
    EdgeKind,
    NodeKind,
    StateTree,
    build_topology,
    states_to_string,
    validate_operating_state,
)


def loop_sectionalizers(topo, states, cand):
    """Closed sectionalizers on the loop that closing ``cand`` creates (BFS).

    Substation sources collapse into one virtual vertex 0, so a path running
    source-to-source through the grid counts as part of the loop.
    """
    adj = {i: [] for i in range(topo.n_nodes + 1)}
    for e in topo.edges:
        if states[e.id - 1] and e.id != cand.id:
            adj[e.u].append((e.v, e.id))
            adj[e.v].append((e.u, e.id))
    for node in topo.nodes:
        if node.kind is NodeKind.SOURCE:
            adj[0].append((node.id, None))
            adj[node.id].append((0, None))
    prev = {cand.u: (cand.u, None)}
    queue = deque([cand.u])
    while queue:
        cur = queue.popleft()
        for nxt, eid in adj[cur]:
            if nxt not in prev:
                prev[nxt] = (cur, eid)
                queue.append(nxt)
    if cand.v not in prev:
        return []
    out = []
    cur = cand.v
    while cur != cand.u:
        cur, eid = prev[cur]
        if eid is not None and topo.edge(eid).kind is EdgeKind.SECTIONALIZER:
            out.append(eid)
    return sorted(out)


def reference_find_move(plan, suspects):
    """Trial-and-error search; also returns every landing state it tried."""
    topo = plan.topo
    frozen = plan.island_nodes()
    best, tried = None, []
    for cand in topo.edges:
        if plan.states[cand.id - 1] or cand.kind is EdgeKind.BREAKER:
            continue
        if cand.u in frozen or cand.v in frozen:
            continue
        for sec in loop_sectionalizers(topo, plan.states, cand):
            trial = plan.states.copy()
            trial[cand.id - 1] = 1
            trial[sec - 1] = 0
            tried.append(trial)
            if not validate_operating_state(topo, trial).ok:
                continue
            visit = plan.visits.get(trial.tobytes())
            read = visit.reads if visit else {}
            counts = plan.counts(suspects, frtu_coverage(topo, trial))
            score = min(plan.split_scores(counts, len(suspects), read), default=(None,))[0]
            if score is None:
                continue
            entry = (score, sec, cand.id)
            if best is None or entry < best:
                best = entry
    return (None if best is None else (best[2], best[1])), tried


def random_planner(topo, rng, suspects=(2, 9), landings=(0, 4)):
    """A planner at a random valid state with random bookkeeping.

    The state comes from the DG isolation on most draws (some islands then
    marked restored while still cut off) followed by a few random branch
    exchanges, so it is always radial and valid; the planner then enters
    it. Suspects, clean and resolved nodes, and the reads taken at this
    state and at visits to some of its neighbours are drawn at random:
    the suspect count and the number of visited neighbours from the
    half-open ranges ``suspects`` and ``landings``.
    """
    plan = _Planner(topo, sorted(topo.frtu_map)[0], lambda states: {}, None)
    if rng.random() < 0.7:
        iso = isolate_dg_islands(topo, plan.states)
        plan.states = iso.states_after.copy()
        plan.islands = list(iso.islands)
        for island in plan.islands:
            island.restored = bool(rng.random() < 0.3)
    for _ in range(int(rng.integers(0, 6))):
        frozen = plan.island_nodes()
        opens = [e for e in topo.edges if not plan.states[e.id - 1]
                 and e.kind is not EdgeKind.BREAKER
                 and e.u not in frozen and e.v not in frozen]
        if not opens:
            break
        cand = opens[int(rng.integers(len(opens)))]
        secs = loop_sectionalizers(topo, plan.states, cand)
        if not secs:
            continue
        plan.states[cand.id - 1] = 1
        plan.states[secs[int(rng.integers(len(secs)))] - 1] = 0
    assert plan.enter().ok

    loads = sorted(topo.load_ids)
    frtus = sorted(topo.frtu_edges)
    nodes = {int(n) for n in rng.choice(loads, size=int(rng.integers(*suspects)), replace=False)}
    plan.tampered = {n for n in loads if n not in nodes and rng.random() < 0.05}
    clean = {n for n in loads if rng.random() < 0.1}
    plan.visit.reads = {f: bool(rng.random() < 0.5) for f in frtus if rng.random() < 0.3}
    neighbours = []
    for cand in topo.edges:
        if plan.states[cand.id - 1] or cand.kind is EdgeKind.BREAKER:
            continue
        for sec in loop_sectionalizers(topo, plan.states, cand):
            neighbours.append((cand.id, sec))
    for pick in rng.permutation(len(neighbours))[:int(rng.integers(*landings))]:
        cand, sec = neighbours[int(pick)]
        there = plan.states.copy()
        there[cand - 1], there[sec - 1] = 1, 0
        plan.visits[there.tobytes()] = _Visit(
            tree=validate_operating_state(topo, there).tree,
            reads={f: False for f in frtus if rng.random() < 0.6})
    return plan, frozenset(nodes) - clean


@pytest.mark.parametrize("seed", range(150))
def test_find_move_matches_reference_on_meshes(seed):
    rng = np.random.default_rng([53, seed])
    topo = make_mesh(seed)
    for _ in range(4):
        plan, suspects = random_planner(topo, rng)
        expected, tried = reference_find_move(plan, suspects)
        assert plan.find_move(suspects) == expected
        for trial in tried:
            assert validate_operating_state(topo, trial).ok


@pytest.mark.parametrize("seed", range(40))
def test_find_move_matches_reference_on_chains(seed):
    # Long loops put many sectionalizers on one tie's path, so many pairs
    # share an outcome; dense suspects and many visited landing states
    # test the tie-break among them and the per-pair scoring of visits.
    rng = np.random.default_rng([67, seed])
    topo = two_feeder_chain(20 + seed)
    n_loads = len(topo.load_ids)
    for _ in range(3):
        plan, suspects = random_planner(
            topo, rng, suspects=(n_loads // 4, n_loads), landings=(0, 16))
        expected, _ = reference_find_move(plan, suspects)
        assert plan.find_move(suspects) == expected


def coverage_by_definition(topo, states):
    """Each FRTU's coverage: the loads that opening its breaker alone darkens."""
    base = energized_nodes(topo, states)
    expect = {}
    for eid, frtu in sorted(topo.frtu_map.items()):
        opened = np.array(states, dtype=np.uint8)
        opened[eid - 1] = 0
        after = energized_nodes(topo, opened)
        expect[frtu] = frozenset(
            n for n in topo.load_ids if base[n - 1] and not after[n - 1])
    return expect


@pytest.mark.parametrize("seed", range(60))
def test_tree_feeders_reproduce_frtu_coverage(seed):
    # Every state the planner validates is radial, so each load's feeder
    # in the state's tree names the one FRTU that meters it, if any.
    rng = np.random.default_rng([71, seed])
    topo = make_mesh(seed)
    landing = isolate_dg_islands(topo, topo.normal_states()).states_after
    for states in [landing] + [random_planner(topo, rng)[0].states for _ in range(4)]:
        tree = validate_operating_state(topo, states).tree
        by_feeder = {
            frtu: frozenset(n for n in topo.load_ids if tree.feeder[n] == eid)
            for eid, frtu in topo.frtu_map.items()
        }
        assert by_feeder == frtu_coverage(topo, states), states_to_string(states)


@pytest.mark.parametrize("seed", range(60))
def test_frtu_coverage_is_loss_when_only_that_breaker_opens(seed):
    rng = np.random.default_rng([59, seed])
    topo = make_mesh(seed)
    vectors = [topo.normal_states(), np.ones(topo.n_edges, dtype=np.uint8)]
    vectors += [rng.integers(0, 2, topo.n_edges).astype(np.uint8) for _ in range(6)]
    for states in vectors:
        assert frtu_coverage(topo, states) == coverage_by_definition(topo, states)


def test_frtu_coverage_on_every_vector_with_loads_tied_to_a_source():
    # Load 6 hangs off source 2 through a sectionalizer and tie 3 runs
    # from load 4 to source 2, so a load can share its section with a
    # source: then no single breaker carries it.
    topo = build_topology({
        "nodes": [
            {"id": 1, "kind": "source"}, {"id": 2, "kind": "source"},
            {"id": 3, "kind": "load"}, {"id": 4, "kind": "load"},
            {"id": 5, "kind": "load"}, {"id": 6, "kind": "load"},
        ],
        "edges": [
            {"id": 1, "kind": "breaker", "from": 1, "to": 3},
            {"id": 2, "kind": "sectionalizer", "from": 3, "to": 4},
            {"id": 3, "kind": "tie", "from": 4, "to": 2},
            {"id": 4, "kind": "breaker", "from": 2, "to": 5},
            {"id": 5, "kind": "tie", "from": 5, "to": 4},
            {"id": 6, "kind": "sectionalizer", "from": 2, "to": 6},
            {"id": 7, "kind": "tie", "from": 6, "to": 3},
        ],
    })
    for bits in range(2 ** topo.n_edges):
        states = np.array([(bits >> j) & 1 for j in range(topo.n_edges)], dtype=np.uint8)
        assert (frtu_coverage(topo, states) == coverage_by_definition(topo, states)
                ), states_to_string(states)


def test_call_counts_on_thousand_node_chain(monkeypatch):
    topo = two_feeder_chain(499)
    tampered = 180
    meters = [
        CustomerMeter(f"M-{n:04d}", n, 1.0,
                      Tamper(TamperKind.SCALE, 0.0) if n == tampered else None)
        for n in sorted(topo.load_ids)
    ]
    oracle = SimulationOracle(topo, meters, seed=11, threshold=0.1 / len(meters))

    calls = {"validate": 0, "coverage": 0, "coverage_builds": 0, "trees": 0,
             "scores_in_move": 0, "energized_in_move": 0, "trees_in_move": 0,
             "labels": 0}
    in_move = [False]

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def energized(*args, **kwargs):
        calls["energized_in_move"] += in_move[0]
        return real_energized(*args, **kwargs)

    def build_tree(cls, *args, **kwargs):
        calls["trees"] += 1
        calls["trees_in_move"] += in_move[0]
        return real_build(*args, **kwargs)

    def split_scores(self, *args, **kwargs):
        calls["scores_in_move"] += in_move[0]
        return real_split_scores(self, *args, **kwargs)

    def find_move(self, suspects):
        in_move[0] = True
        try:
            return real_find_move(self, suspects)
        finally:
            in_move[0] = False

    real_energized = energize.energized_nodes
    real_build = StateTree.build
    real_find_move = _Planner.find_move
    real_split_scores = _Planner.split_scores
    monkeypatch.setattr(planner, "validate_operating_state",
                        counting("validate", planner.validate_operating_state))
    count_coverage = counting("coverage", energize.frtu_coverage)
    for module in (energize, metering, planner):
        monkeypatch.setattr(module, "frtu_coverage", count_coverage)
    build_coverage = cached_property(
        counting("coverage_builds", StateTree.__dict__["coverage"].func))
    build_coverage.__set_name__(StateTree, "coverage")
    monkeypatch.setattr(StateTree, "coverage", build_coverage)
    monkeypatch.setattr(energize, "energized_nodes", energized)
    monkeypatch.setattr(StateTree, "build", classmethod(build_tree))
    monkeypatch.setattr(_Planner, "find_move", find_move)
    monkeypatch.setattr(_Planner, "split_scores", split_scores)
    count_labels = counting("labels", topology.label)
    monkeypatch.setattr(topology, "label", count_labels)
    monkeypatch.setattr(energize, "label", count_labels)

    report = localize(topo, 1, oracle)
    assert list(report.final_suspects) == [tampered]
    assert any(line.startswith("transfer load") for line in report.log)
    # committed_states starts with the initial state: one validation for
    # it and one per committed switching group.
    assert calls["validate"] == len(report.committed_states)
    # The planner reads each state's coverage from the tree its validation
    # built; only the oracle's one simulation asks ``frtu_coverage``.
    assert calls["coverage"] <= 1
    assert calls["coverage_builds"] <= len(set(report.committed_states))
    assert calls["energized_in_move"] == 0
    # One tree per validation: the DG isolation reads its cut state's tree
    # through the same memo, and here it cuts nothing. The move search
    # reads the tree its state's validation built.
    assert calls["trees"] == calls["validate"]
    assert calls["trees_in_move"] == 0
    # Validation, the planner's coverage and the oracle's energization and
    # coverage and the DG isolation all read the state's one remembered
    # tree, so each distinct committed state is labelled once. Labelling
    # per reader made 41 labellings here: four per state plus the cut.
    assert calls["labels"] <= len(set(report.committed_states))
    # Pairs are scored once per distinct (outcome, landing state), not
    # once per pair (that made 8,956 scorings here).
    assert calls["scores_in_move"] <= 1031


def test_one_simulated_interval_per_oracle(monkeypatch):
    topo = two_feeder_chain(499)
    calls = {"simulate": 0, "rng": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metering, "simulate_interval",
                        counting("simulate", metering.simulate_interval))
    monkeypatch.setattr(np.random, "default_rng", counting("rng", np.random.default_rng))
    # Node 180 hangs below breaker 1, node 700 below the second feeder's
    # breaker 999.
    for oracles, (tampered, alarm_edge) in enumerate(((180, 1), (700, 999)), start=1):
        meters = [
            CustomerMeter(f"M-{n:04d}", n, 1.0,
                          Tamper(TamperKind.SCALE, 0.0) if n == tampered else None)
            for n in sorted(topo.load_ids)
        ]
        oracle = SimulationOracle(topo, meters, seed=11, noise=0.01,
                                  threshold=0.1 / len(meters))
        report = localize(topo, alarm_edge, oracle)
        assert list(report.final_suspects) == [tampered]
        # Every fresh read at a new switch state regroups the one interval
        # the oracle simulated; simulating per fresh read made one per check.
        assert len(set(report.committed_states)) > 3
        assert calls == {"simulate": oracles, "rng": oracles}
