"""Seeded random networks and localization episodes for fuzz suites.

``make_episode`` builds a two-feeder network in the shape of the reference
grid: two chains hanging off their own substations, one normally-open tie
from somewhere on feeder A to the far end of feeder B, at most one DG
customer placed so the island cut is always re-feedable, and exactly one
tampered meter reporting zero.

``make_mesh`` builds a 3-4 feeder mesh: a random tree per feeder, joined
by normally-open ties, with DG customers on leaves, and ``make_mesh_case``
meters one with one or two dead meters. ``two_feeder_chain`` builds two
equal chains joined end to end by one tie.
"""

from dataclasses import dataclass

import numpy as np

from gridsleuth.metering import CustomerMeter, SimulationOracle, Tamper, TamperKind
from gridsleuth.topology import Topology, build_topology

FUZZ_THRESHOLD = 0.02
BASE_LOAD = 10.0


@dataclass(frozen=True)
class Episode:
    topology: Topology
    spec: dict
    meters: tuple[CustomerMeter, ...]
    tampered_node: int
    alarm_edge: int
    dg_node: int | None
    seed: int

    def oracle(self) -> SimulationOracle:
        return SimulationOracle(
            self.topology, self.meters, self.seed, threshold=FUZZ_THRESHOLD)


def make_episode(seed: int) -> Episode:
    """Deterministic episode for one fuzz seed."""
    rng = np.random.default_rng([931, seed])
    a = int(rng.integers(1, 11))
    b = int(rng.integers(1, 11))
    # Node layout: 1 = source A, 2..a+1 = feeder A loads outward,
    # a+2..a+b+1 = feeder B loads with a+2 farthest from its source,
    # a+b+2 = source B.
    src_a, src_b = 1, a + b + 2
    a_loads = list(range(2, a + 2))
    b_loads = list(range(a + 2, a + b + 2))

    # The tie joins the two chain ends. Attached mid-chain it would leave
    # a stub of feeder-A customers that no boundary transfer can split
    # (they hang off the tie node away from both sources), and those
    # episodes are irreducible by construction, not by planner defect.
    tie_at = a_loads[-1]
    dg_node = None
    roll = rng.random()
    if roll < 0.45:
        dg_node = int(rng.choice(b_loads))
    elif roll < 0.60:
        # The only feasible feeder-A spot is the chain end: a DG cut
        # deeper in the chain would strand the tail beyond any tie.
        dg_node = a_loads[-1]

    nodes = [{"id": src_a, "kind": "source"}]
    nodes += [
        {"id": i, "kind": "load", "dg": i == dg_node} for i in a_loads + b_loads
    ]
    nodes.append({"id": src_b, "kind": "source"})
    nodes.sort(key=lambda n: n["id"])

    edges = [{"id": 1, "kind": "breaker", "from": src_a, "to": 2, "frtu": "FRTU_1"}]
    eid = 1
    for i in a_loads[:-1]:
        eid += 1
        edges.append({"id": eid, "kind": "sectionalizer", "from": i, "to": i + 1})
    eid += 1
    tie_edge = eid
    edges.append({"id": eid, "kind": "tie", "from": tie_at, "to": b_loads[0]})
    for i in b_loads[:-1]:
        eid += 1
        edges.append({"id": eid, "kind": "sectionalizer", "from": i, "to": i + 1})
    eid += 1
    alarm_b = eid
    edges.append({
        "id": eid, "kind": "breaker", "from": b_loads[-1], "to": src_b,
        "frtu": "FRTU_2",
    })
    spec = {"nodes": nodes, "edges": edges}
    topo = build_topology(spec)

    tampered = int(rng.choice(a_loads + b_loads))
    meters = tuple(
        CustomerMeter(
            meter_id=f"M-{n:02d}",
            node=n,
            base_load_kwh=BASE_LOAD,
            tamper=Tamper(TamperKind.SCALE, 0.0) if n == tampered else None,
        )
        for n in a_loads + b_loads
    )
    alarm_edge = 1 if tampered in a_loads else alarm_b
    return Episode(
        topology=topo,
        spec=spec,
        meters=meters,
        tampered_node=tampered,
        alarm_edge=alarm_edge,
        dg_node=dg_node,
        seed=seed,
    )


def make_mesh(seed: int) -> Topology:
    """Random radial mesh of 3-4 feeders, 12-40 loads, 2-5 ties, 0-2 DG leaves.

    Sources take ids 1..F and each heads one feeder through a breaker; the
    loads of a feeder form a random tree. Most ties join two feeders, and
    some close a loop inside one. A DG sits only on a leaf that no tie
    touches, so islanding it never strands a load.
    """
    rng = np.random.default_rng([977, seed])
    n_feeders = int(rng.integers(3, 5))
    n_loads = int(rng.integers(4 * n_feeders, 41))
    nodes = [{"id": f + 1, "kind": "source"} for f in range(n_feeders)]
    edges: list[dict] = []

    def add_edge(kind: str, u: int, v: int) -> None:
        edges.append({"id": len(edges) + 1, "kind": kind, "from": u, "to": v})

    feeder_of: dict[int, int] = {}
    children: dict[int, int] = {}
    for k in range(n_loads):
        nid = n_feeders + 1 + k
        f = k % n_feeders
        nodes.append({"id": nid, "kind": "load"})
        members = [n for n, g in feeder_of.items() if g == f]
        if not members:
            add_edge("breaker", f + 1, nid)
        else:
            up = members[int(rng.integers(len(members)))]
            children[up] = children.get(up, 0) + 1
            add_edge("sectionalizer", up, nid)
        feeder_of[nid] = f
    loads = sorted(feeder_of)
    joined = {frozenset((e["from"], e["to"])) for e in edges}
    tied: set[int] = set()
    for _ in range(int(rng.integers(2, 6))):
        for _attempt in range(50):
            u, v = (int(x) for x in rng.choice(loads, size=2, replace=False))
            same_feeder = feeder_of[u] == feeder_of[v]
            if same_feeder and rng.random() < 0.7:
                continue
            if frozenset((u, v)) not in joined:
                joined.add(frozenset((u, v)))
                tied |= {u, v}
                add_edge("tie", u, v)
                break
    leaves = [n for n in loads if n not in children and n not in tied]
    dgs = {int(n) for n in rng.permutation(leaves)[:int(rng.integers(0, 3))]}
    for node in nodes:
        if node["id"] in dgs:
            node["dg"] = True
    return build_topology({"nodes": nodes, "edges": edges})


def make_mesh_case(seed: int) -> tuple[Topology, int, SimulationOracle]:
    """``make_mesh(seed)`` with its alarm edge and simulation oracle.

    Every load has one meter of ``BASE_LOAD`` kWh, and one or two of them
    report zero. The alarm is the breaker that covers the lowest dead
    node at the normal state.
    """
    topo = make_mesh(seed)
    rng = np.random.default_rng([983, seed])
    loads = sorted(topo.load_ids)
    dead = sorted(int(n) for n in rng.choice(loads, size=int(rng.integers(1, 3)),
                                             replace=False))
    meters = [
        CustomerMeter(f"M-{n:02d}", n, BASE_LOAD,
                      Tamper(TamperKind.SCALE, 0.0) if n in dead else None)
        for n in loads
    ]
    coverage = topo.tree(topo.normal_states()).coverage
    frtu = next(f for f, nodes in coverage.items() if dead[0] in nodes)
    oracle = SimulationOracle(topo, meters, seed, threshold=0.1 / len(meters))
    return topo, topo.frtu_edges[frtu], oracle


def two_feeder_chain(loads_per_feeder: int) -> Topology:
    """Two chains of ``loads_per_feeder`` loads, each fed by its own breaker
    and joined at their far ends by one normally-open tie."""
    a = loads_per_feeder
    n = 2 * a + 2
    nodes = [{"id": 1, "kind": "source"}]
    nodes += [{"id": i, "kind": "load"} for i in range(2, n)]
    nodes += [{"id": n, "kind": "source"}]
    edges = [{"id": 1, "kind": "breaker", "from": 1, "to": 2}]
    for i in range(2, a + 1):
        edges.append({"id": i, "kind": "sectionalizer", "from": i, "to": i + 1})
    edges.append({"id": a + 1, "kind": "tie", "from": a + 1, "to": a + 2})
    for i in range(a + 2, 2 * a + 1):
        edges.append({"id": i, "kind": "sectionalizer", "from": i, "to": i + 1})
    edges.append({"id": 2 * a + 1, "kind": "breaker", "from": 2 * a + 1, "to": n})
    return build_topology({"nodes": nodes, "edges": edges})
