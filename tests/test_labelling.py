"""One labelling per switch state, against the multi-pass code it replaced.

``reference_validate`` is the two-pass validation: a cycle test with the
sources collapsed, then a component labelling for the fed set and the DG
islands. ``reference_isolate`` is the DG isolation that labelled the cut
state into components and ran a union-find over component indices as ties
closed. ``validate_operating_state`` and ``isolate_dg_islands`` must give
the same results, errors included, from one rooted labelling each. A
topology remembers the last state it labelled; whatever order states
arrive in, and however their arrays are typed or reused, every reader must
answer as a freshly built topology would.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from episode_fuzz import make_episode, make_mesh
from gridsleuth import cli
from gridsleuth.energize import energized_nodes, frtu_coverage
from gridsleuth.errors import InfeasibleIsolationError, TopologyError
from gridsleuth.metering import CustomerMeter, simulate_interval
from gridsleuth.networks import CT8_SPEC, ct8
from gridsleuth.planner import CLOSE, OPEN, IslandRecord, IsolationPlan, isolate_dg_islands
from gridsleuth.topology import (
    EdgeKind,
    NodeKind,
    build_topology,
    states_from_string,
    states_to_string,
    validate_operating_state,
)

SCENARIO = str(Path(__file__).parent.parent / "scenarios" / "tamper_node5.json")


def closed_components(topo, states):
    """Components over closed edges, as node-id sets by smallest node; a
    flood fill that shares no code with the package."""
    neighbors = {n.id: [] for n in topo.nodes}
    for j, e in enumerate(topo.edges):
        if states[j]:
            neighbors[e.u].append(e.v)
            neighbors[e.v].append(e.u)
    comps, seen = [], set()
    for start in neighbors:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for nb in neighbors[stack.pop()]:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        seen |= comp
        comps.append(comp)
    return comps


def reference_validate(topo, states):
    """Loop flag, dark loads and DG islands from two separate passes."""
    states = topo.check_states(states)
    sources = {n.id for n in topo.nodes if n.kind is NodeKind.SOURCE}
    comps = closed_components(topo, states)
    # Pass 1: the cycle rank of the closed edges once every source is
    # merged into one vertex.
    n_vertices = topo.n_nodes - len(sources) + 1
    n_comps = 1 + sum(1 for comp in comps if not comp & sources)
    has_loop = int(np.count_nonzero(states)) > n_vertices - n_comps
    # Pass 2: the fed set and the islands from the components.
    fed: set[int] = set()
    islands = []
    for comp in comps:
        if comp & sources:
            fed |= comp
        elif any(topo.node(i).has_dg for i in comp):
            islands.append(frozenset(comp))
    islands.sort(key=min)
    island_nodes = set().union(*islands)
    dark = tuple(n.id for n in topo.nodes if n.kind is NodeKind.LOAD
                 and n.id not in fed and n.id not in island_nodes)
    return has_loop, dark, tuple(islands)


def reference_isolate(topo, states):
    """DG isolation over component indices."""
    work = topo.check_states(states).copy()
    dg_nodes = sorted(n.id for n in topo.nodes if n.has_dg)
    opened_by = {d: [] for d in dg_nodes}
    for dg in dg_nodes:
        for edge in topo.edges:
            if work[edge.id - 1] and dg in (edge.u, edge.v):
                work[edge.id - 1] = 0
                opened_by[dg].append(edge.id)

    sources = {n.id for n in topo.nodes if n.kind is NodeKind.SOURCE}
    comps = closed_components(topo, work)
    comp_of = {node: idx for idx, comp in enumerate(comps) for node in comp}
    fed = {idx for idx, comp in enumerate(comps) if comp & sources}
    dg_comp_idx = {idx for idx, comp in enumerate(comps) if comp & set(dg_nodes)}
    island_nodes = set().union(*(comps[i] for i in dg_comp_idx))
    parent = list(range(len(comps)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    def is_fed(node):
        return any(find(comp_of[node]) == find(f) for f in fed)

    tie_for = {d: [] for d in dg_nodes}
    stranded = sorted((i for i in range(len(comps)) if i not in fed | dg_comp_idx),
                      key=lambda i: min(comps[i]))
    for idx in stranded:
        candidates = [
            e for e in topo.edges
            if not work[e.id - 1] and e.kind is EdgeKind.TIE
            and e.u not in island_nodes and e.v not in island_nodes
            and is_fed(e.u) != is_fed(e.v)
            and find(comp_of[e.v if is_fed(e.u) else e.u]) == find(idx)
        ]
        if not candidates:
            raise InfeasibleIsolationError(
                f"no open tie can re-feed nodes {sorted(comps[idx])} once the "
                f"DG cuts are made")
        tie = min(candidates, key=lambda e: e.id)
        work[tie.id - 1] = 1
        fed_end, dark_end = (tie.u, tie.v) if is_fed(tie.u) else (tie.v, tie.u)
        parent[find(comp_of[dark_end])] = find(comp_of[fed_end])
        owner = min(dg for dg, edges in opened_by.items()
                    if any(topo.edge(e).u in comps[idx] or topo.edge(e).v in comps[idx]
                           for e in edges))
        tie_for[owner].append(tie.id)

    islands = tuple(
        IslandRecord(
            nodes=next((frozenset(c) for c in comps if dg in c), frozenset({dg})),
            opened=tuple(sorted(opened_by[dg])),
            closed_ties=tuple(sorted(tie_for[dg])),
        )
        for dg in dg_nodes
    )
    closes = sorted(t for ties in tie_for.values() for t in ties)
    opens = sorted(e for edges in opened_by.values() for e in edges)
    ops = tuple([(CLOSE, e) for e in closes] + [(OPEN, e) for e in opens])
    return IsolationPlan(ops=ops, islands=islands, states_after=work)


def with_random_dgs(topo, rng):
    """The same network with a DG on each load with probability 0.15."""
    return build_topology({
        "nodes": [{"id": n.id, "kind": n.kind.value,
                   "dg": n.kind is NodeKind.LOAD and bool(rng.random() < 0.15)}
                  for n in topo.nodes],
        "edges": [{"id": e.id, "kind": e.kind.value, "from": e.u, "to": e.v,
                   "frtu": e.frtu} for e in topo.edges],
    })


def random_cases(seed):
    """(network, switch vector) pairs: near-normal flips and random vectors."""
    rng = np.random.default_rng([61, seed])
    mesh, chains = make_mesh(seed), make_episode(seed).topology
    for topo in (mesh, chains, with_random_dgs(mesh, rng), with_random_dgs(chains, rng)):
        yield topo, topo.normal_states()
        for _ in range(5):
            near = topo.normal_states().copy()
            near[rng.integers(0, topo.n_edges, size=int(rng.integers(1, 3)))] ^= 1
            yield topo, near
            closed = rng.choice([0.5, 0.8, 0.95])
            yield topo, (rng.random(topo.n_edges) < closed).astype(np.uint8)


def isolation_outcome(isolate, topo, states):
    """(ops, islands, states after) of a plan, or the error's type and message."""
    try:
        plan = isolate(topo, states)
    except InfeasibleIsolationError as exc:
        return type(exc), str(exc)
    islands = [i.to_dict() for i in plan.islands]
    return plan.ops, islands, states_to_string(plan.states_after)


@pytest.mark.parametrize("seed", range(100))
def test_one_labelling_matches_two_pass_references(seed):
    for topo, states in random_cases(seed):
        got = validate_operating_state(topo, states)
        has_loop, dark, islands = reference_validate(topo, states)
        assert (got.has_loop, got.dark_loads, got.dg_islands) == (has_loop, dark, islands)
        if not dark:
            assert (isolation_outcome(isolate_dg_islands, topo, states)
                    == isolation_outcome(reference_isolate, topo, states))


def test_random_cases_cover_loops_dark_islands_and_isolation_errors():
    seen = Counter()
    for seed in range(100):
        for topo, states in random_cases(seed):
            has_loop, dark, islands = reference_validate(topo, states)
            seen["loop"] += has_loop
            seen["dark"] += bool(dark)
            seen["multi-node island"] += any(len(i) > 1 for i in islands)
            if not dark:
                ops = isolation_outcome(reference_isolate, topo, states)[0]
                if ops is InfeasibleIsolationError:
                    seen["isolation error"] += 1
                else:
                    seen["tie re-feed"] += any(op == CLOSE for op, _ in ops)
    assert min(seen.values()) >= 20 and len(seen) == 5, seen


def test_simulation_powers_what_a_substation_or_dg_reaches():
    for seed in range(40):
        for topo, states in random_cases(seed):
            meters = [CustomerMeter(f"M-{n}", n, 1.0) for n in sorted(topo.load_ids)]
            interval = simulate_interval(topo, states, meters, seed=seed)
            dark = reference_validate(topo, states)[1]
            for reading in interval.readings:
                assert (reading.true_kwh == 0.0) == (reading.node in dark)


@pytest.mark.parametrize("dg", [True, False])
def test_isolation_refuses_a_dark_start(dg):
    spec = {"nodes": [dict(n, dg=dg and n.get("dg", False)) for n in CT8_SPEC["nodes"]],
            "edges": CT8_SPEC["edges"]}
    topo = build_topology(spec)
    states = states_from_string("0110111", topo)
    assert validate_operating_state(topo, states).dark_loads == (2, 3, 4)
    with pytest.raises(InfeasibleIsolationError, match=r"loads \[2, 3, 4\] are dark"):
        isolate_dg_islands(topo, states)


def small_spec(nodes, edges):
    return {
        "nodes": [{"id": i, "kind": kind, "dg": dg}
                  for i, (kind, dg) in enumerate(nodes, 1)],
        "edges": [{"id": i, "kind": kind, "from": u, "to": v}
                  for i, (kind, u, v) in enumerate(edges, 1)],
    }


# Load 4 sits between DGs 3 and 5, so both cuts strand it; tie 6 re-feeds
# it and is charged to DG 3, the lower of the two. Tie 8 re-feeds load 6,
# which only DG 5's cut touches.
BETWEEN_TWO_DGS = small_spec(
    [("source", False), ("load", False), ("load", True), ("load", False),
     ("load", True), ("load", False), ("load", False), ("source", False)],
    [("breaker", 1, 2), ("sectionalizer", 2, 3), ("sectionalizer", 3, 4),
     ("sectionalizer", 4, 5), ("sectionalizer", 5, 6), ("tie", 4, 7),
     ("breaker", 8, 7), ("tie", 6, 7)])
# A DG on source 1: cutting it off would open breaker 1, the feeder's own
# head, so the topology is refused.
DG_ON_A_SOURCE = small_spec(
    [("source", True), ("load", False), ("load", False), ("source", False),
     ("load", False)],
    [("breaker", 1, 2), ("sectionalizer", 2, 3), ("tie", 1, 3), ("tie", 3, 5),
     ("breaker", 4, 5)])


# Tie 5 joins sources 1 and 4 directly, so closing it parallels the two
# feeders with no load on the loop.
SOURCE_TO_SOURCE_TIE = small_spec(
    [("source", False), ("load", False), ("load", True), ("source", False),
     ("load", False)],
    [("breaker", 1, 2), ("sectionalizer", 2, 3), ("breaker", 4, 5),
     ("tie", 3, 5), ("tie", 1, 4)])
# Opening edge 2 leaves loads 3-5 without a source but with two DGs, one
# island; opening edge 3 as well splits it into two.
TWO_DGS_ONE_COMPONENT = small_spec(
    [("source", False), ("load", False), ("load", True), ("load", False),
     ("load", True), ("source", False), ("load", False)],
    [("breaker", 1, 2), ("sectionalizer", 2, 3), ("sectionalizer", 3, 4),
     ("sectionalizer", 4, 5), ("breaker", 6, 7), ("tie", 5, 7)])


@pytest.mark.parametrize("spec, shape", [
    (SOURCE_TO_SOURCE_TIE, "source tie loop"),
    (TWO_DGS_ONE_COMPONENT, "two-DG island"),
])
def test_one_labelling_on_every_vector_of_shapes_the_fuzzers_miss(spec, shape):
    topo = build_topology(spec)
    seen = Counter()
    for bits in range(2 ** topo.n_edges):
        states = np.array([(bits >> j) & 1 for j in range(topo.n_edges)], dtype=np.uint8)
        got = validate_operating_state(topo, states)
        has_loop, dark, islands = reference_validate(topo, states)
        assert (got.has_loop, got.dark_loads, got.dg_islands) == (has_loop, dark, islands)
        if not dark:
            assert (isolation_outcome(isolate_dg_islands, topo, states)
                    == isolation_outcome(reference_isolate, topo, states))
        seen["source tie loop"] += has_loop and states[-1] and states.sum() == 1
        seen["two-DG island"] += any(len(i & {3, 5}) == 2 for i in islands)
    assert seen[shape] > 0


@pytest.mark.parametrize("spec, ops, islands", [
    (BETWEEN_TWO_DGS,
     ((CLOSE, 6), (CLOSE, 8), (OPEN, 2), (OPEN, 3), (OPEN, 4), (OPEN, 5)),
     [{"nodes": [3], "opened": [2, 3], "closed_ties": [6], "restored": False},
      {"nodes": [5], "opened": [4, 5], "closed_ties": [8], "restored": False}]),
])
def test_isolation_ties_on_small_networks(spec, ops, islands):
    topo = build_topology(spec)
    got = isolation_outcome(isolate_dg_islands, topo, topo.normal_states())
    assert got[:2] == (ops, islands)
    assert got == isolation_outcome(reference_isolate, topo, topo.normal_states())


def test_a_dg_on_a_source_is_refused():
    with pytest.raises(TopologyError, match=r"node 1 is a source and cannot carry a DG"):
        build_topology(DG_ON_A_SOURCE)


def test_multi_node_dg_island_keeps_its_load_out_of_every_aggregate():
    t = ct8()
    # Edge 6 open with the tie still open: nodes 5 and 6 run on the DG.
    states = states_from_string("1110101", t)
    meters = [CustomerMeter(f"M-{n:02d}", n, 10.0) for n in range(2, 8)]
    interval = simulate_interval(t, states, meters, seed=3)
    true = {r.node: r.true_kwh for r in interval.readings}
    assert true == {2: 10.0, 3: 10.0, 4: 10.0, 5: 10.0, 6: 10.0, 7: 10.0}
    for fr in interval.frtu_readings:
        assert not fr.covered_nodes & {5, 6}
    assert interval.frtu("FRTU_1").covered_nodes == {2, 3, 4}
    assert interval.frtu("FRTU_2").covered_nodes == {7}
    assert interval.frtu("FRTU_2").aggregate_kwh == pytest.approx(10.0)


@pytest.mark.parametrize("intervals", [1, 5])
def test_sim_run_simulates_each_interval_once(tmp_path, monkeypatch, capsys, intervals):
    calls = []

    def counting(*args, **kwargs):
        calls.append("state")
        for interval in real(*args, **kwargs):
            calls.append(interval.index)
            yield interval

    real = cli.simulate_intervals
    monkeypatch.setattr(cli, "simulate_intervals", counting)
    out = tmp_path / "history.csv"
    code = cli.main(["sim", "run", SCENARIO, "--intervals", str(intervals),
                     "--out", str(out)])
    assert code == 0
    assert calls == ["state", *range(intervals)]
    assert "alarms at interval 0: FRTU_2" in capsys.readouterr().out


@pytest.mark.parametrize("seed", range(20))
def test_states_to_string_matches_a_per_entry_join(seed):
    rng = np.random.default_rng([67, seed])
    n = int(rng.integers(0, 40))
    vectors = [
        rng.integers(-3, 4, n),
        rng.integers(0, 2, n).astype(np.uint8),
        rng.random(n) < 0.5,
        rng.integers(0, 256, n).astype(np.uint8).tolist(),
        [],
    ]
    for v in vectors:
        assert states_to_string(v) == "".join("1" if int(s) else "0" for s in v)


def state_readings(topo, states):
    """What validation, coverage and energization say about one state."""
    check = validate_operating_state(topo, states)
    feeds = topo.source_vector() | topo.dg_vector()
    return (check.has_loop, check.dark_loads, check.dg_islands, check.violations,
            frtu_coverage(topo, states), energized_nodes(topo, states).tolist(),
            energized_nodes(topo, states, feeds).tolist())


@pytest.mark.parametrize("seed", range(30))
def test_remembered_tree_is_never_stale(seed):
    # The planner flips switches in one array in place, so a tree
    # remembered by the array rather than by its contents would answer
    # for a state that is gone.
    rng = np.random.default_rng([73, seed])
    spec = make_episode(seed).spec
    topo = build_topology(spec)

    def expect(states):
        return state_readings(build_topology(spec), states)

    seen = set()
    states = topo.normal_states().copy()
    for j in rng.integers(0, topo.n_edges, size=12):
        got = state_readings(topo, states)
        assert got == expect(states)
        seen.add(repr(got))
        states[j] ^= 1
    assert len(seen) > 1
    a, b = ((rng.random(topo.n_edges) < 0.8).astype(np.uint8) for _ in range(2))
    for states in (a, b, a, a.astype(bool), a.astype(np.int64), a.astype(np.int64) * 256,
                   b.astype(bool), a.astype(np.int64) * 256, b.astype(np.int64)):
        assert state_readings(topo, states) == expect(states)
