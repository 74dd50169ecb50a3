"""Seeded inputs for the benchmark workloads.

Everything here is plain data (topology specs, meter lists, scenario
documents) derived from one integer seed, so the same seed always yields
byte-identical inputs and ``fingerprint`` proves two commits ran the same
ones. Nothing in this module calls into gridsleuth.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

# One bad meter must alarm in any switch configuration, so the detection
# threshold is a share of 1 / (meters on the network). The smallest gap is
# the mildest tamper (half the draw) of one meter's lowest draw over every
# meter's highest draw: with BASE_RANGE and NOISE below that is at least
# 0.3 / meters, three times the threshold. Honest meters report their true
# draw, so nothing else alarms.
THRESHOLD_SHARE = 0.1
BASE_RANGE = (0.8, 1.2)
NOISE = 0.05


@dataclass(frozen=True)
class MeterSpec:
    meter_id: str
    node: int
    base_load_kwh: float
    tamper: dict | None = None

    def to_dict(self) -> dict:
        out = {"meter_id": self.meter_id, "node": self.node,
               "base_load_kwh": self.base_load_kwh}
        if self.tamper is not None:
            out["tamper"] = dict(self.tamper)
        return out


@dataclass(frozen=True)
class EpisodeInput:
    """One localization problem: a network, its meters and the truth."""

    name: str
    spec: dict
    meters: tuple[MeterSpec, ...]
    sim_seed: int
    alarm_edge: int
    truth: tuple[int, ...]
    tampered_meters: tuple[str, ...] = ()

    @property
    def threshold(self) -> float:
        return THRESHOLD_SHARE / len(self.meters)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "spec": self.spec,
            "meters": [m.to_dict() for m in self.meters],
            "sim_seed": self.sim_seed,
            "noise": NOISE,
            "threshold": self.threshold,
            "alarm_edge": self.alarm_edge,
            "truth": list(self.truth),
            "tampered_meters": list(self.tampered_meters),
        }


def fingerprint(episodes) -> str:
    """SHA-256 over the canonical JSON of every generated input."""
    blob = json.dumps([e.to_dict() for e in episodes], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def counts(episodes) -> dict:
    """Totals of the structural features the workloads vary."""
    out = {"episodes": 0, "nodes": 0, "feeders": 0, "ties": 0, "dgs": 0,
           "tampers": 0, "meters": 0}
    for e in episodes:
        out["episodes"] += 1
        out["nodes"] += len(e.spec["nodes"])
        out["feeders"] += sum(1 for x in e.spec["edges"] if x["kind"] == "breaker")
        out["ties"] += sum(1 for x in e.spec["edges"] if x["kind"] == "tie")
        out["dgs"] += sum(1 for n in e.spec["nodes"] if n.get("dg"))
        out["tampers"] += len(e.truth)
        out["meters"] += len(e.meters)
    return out


def _base_load(rng) -> float:
    return round(float(rng.uniform(*BASE_RANGE)), 4)


def radial_mesh(rng, n_feeders: int, n_loads: int, n_ties: int, n_dgs: int):
    """Random radial tree per feeder, joined by normally-open ties.

    Returns (spec, feeder_of) where ``feeder_of`` maps each load node to
    its feeder index. Sources take ids 1..F; loads follow. Each DG sits on
    a leaf that no tie touches, so islanding it never strands a load.
    """
    sizes = [2] * n_feeders
    for _ in range(n_loads - 2 * n_feeders):
        sizes[int(rng.integers(n_feeders))] += 1
    nodes = [{"id": f + 1, "kind": "source"} for f in range(n_feeders)]
    edges: list[dict] = []

    def add_edge(kind: str, u: int, v: int, **extra) -> None:
        edges.append({"id": len(edges) + 1, "kind": kind, "from": u, "to": v, **extra})

    feeder_of: dict[int, int] = {}
    parent: dict[int, int] = {}
    next_id = n_feeders + 1
    for f, size in enumerate(sizes):
        members: list[int] = []
        for k in range(size):
            nid = next_id
            next_id += 1
            nodes.append({"id": nid, "kind": "load"})
            feeder_of[nid] = f
            if k == 0:
                add_edge("breaker", f + 1, nid, frtu=f"FRTU_{f + 1}")
            else:
                # Half the time extend the newest branch, so feeders get
                # long laterals as well as bushy ones.
                up = members[-1] if rng.random() < 0.5 else members[
                    int(rng.integers(len(members)))]
                parent[nid] = up
                add_edge("sectionalizer", up, nid)
            members.append(nid)
    loads = sorted(feeder_of)
    has_child = set(parent.values())
    leaves = [n for n in loads if n not in has_child and n in parent]
    dgs = {int(n) for n in rng.permutation(leaves)[:n_dgs]}
    linked: set[frozenset[int]] = set()
    tie_feeders = [(f, f + 1) for f in range(n_feeders - 1)]
    while len(tie_feeders) < n_ties:
        a, b = rng.choice(n_feeders, size=2, replace=False)
        tie_feeders.append((int(a), int(b)))
    for fa, fb in tie_feeders:
        side_a = [n for n in loads if feeder_of[n] == fa and n not in dgs]
        side_b = [n for n in loads if feeder_of[n] == fb and n not in dgs]
        for _ in range(50):
            u = int(side_a[int(rng.integers(len(side_a)))])
            v = int(side_b[int(rng.integers(len(side_b)))])
            if frozenset((u, v)) not in linked:
                linked.add(frozenset((u, v)))
                add_edge("tie", u, v)
                break
    for n in nodes:
        if n["id"] in dgs:
            n["dg"] = True
    return {"nodes": nodes, "edges": edges}, feeder_of


def _breaker_of(spec: dict, feeder: int) -> int:
    for e in spec["edges"]:
        if e["kind"] == "breaker" and e["from"] == feeder + 1:
            return e["id"]
    raise ValueError(f"feeder {feeder} has no breaker")


def _one_meter_per_load(rng, spec: dict, tampered: set[int]) -> tuple[MeterSpec, ...]:
    return tuple(
        MeterSpec(
            meter_id=f"M-{n['id']:03d}", node=n["id"], base_load_kwh=_base_load(rng),
            tamper={"mode": "scale", "value": 0.0} if n["id"] in tampered else None)
        for n in spec["nodes"] if n["kind"] == "load")


def mesh_episodes(seed: int, count: int) -> list[EpisodeInput]:
    """Random 3-4 feeder meshes of 20-60 nodes with one or two dead meters.

    Size, feeder, tie, DG and tamper counts are stratified over the episode
    index rather than drawn, so two seeds differ in shapes and placements
    but not in how much work the whole set holds; the seed then shuffles
    the order, so a partial pass over the set is still a fair sample.
    """
    episodes = []
    for k in range(count):
        rng = np.random.default_rng([seed, 1, k])
        n_feeders = 3 + k % 2
        n_nodes = 20 + (41 * k) // count
        spec, feeder_of = radial_mesh(
            rng, n_feeders, n_nodes - n_feeders, n_ties=3 + k % 3, n_dgs=(k // 2) % 3)
        loads = sorted(feeder_of)
        first = int(loads[int(rng.integers(len(loads)))])
        tampered = {first}
        # Every fourth episode pairs two dead meters on one feeder and
        # every fourth on two feeders; the rest have one.
        if k % 2:
            same = k % 4 == 1
            pool = [n for n in loads if n != first
                    and (feeder_of[n] == feeder_of[first]) == same]
            tampered.add(int(pool[int(rng.integers(len(pool)))]))
        low = min(tampered)
        episodes.append(EpisodeInput(
            name=f"mesh-{k}", spec=spec,
            meters=_one_meter_per_load(rng, spec, tampered),
            sim_seed=int(rng.integers(1 << 30)),
            alarm_edge=_breaker_of(spec, feeder_of[low]),
            truth=tuple(sorted(tampered)),
            tampered_meters=tuple(f"M-{n:03d}" for n in sorted(tampered))))
    order = np.random.default_rng([seed, 1]).permutation(count)
    return [episodes[int(i)] for i in order]


def two_feeder_chain(loads_per_feeder: int) -> dict:
    """Two chains joined end to end by one tie; each head is a breaker.

    Loads 2..a+1 run outward on feeder 1, a+2..2a+1 run inward on
    feeder 2, and the tie joins a+1 to a+2.
    """
    a = loads_per_feeder
    n = 2 * a + 2
    nodes = [{"id": 1, "kind": "source"}]
    nodes += [{"id": i, "kind": "load"} for i in range(2, n)]
    nodes += [{"id": n, "kind": "source"}]
    edges = [{"id": 1, "kind": "breaker", "from": 1, "to": 2, "frtu": "FRTU_1"}]
    for i in range(2, a + 1):
        edges.append({"id": i, "kind": "sectionalizer", "from": i, "to": i + 1})
    edges.append({"id": a + 1, "kind": "tie", "from": a + 1, "to": a + 2})
    for i in range(a + 2, 2 * a + 1):
        edges.append({"id": i, "kind": "sectionalizer", "from": i, "to": i + 1})
    edges.append({"id": 2 * a + 1, "kind": "breaker", "from": 2 * a + 1, "to": n,
                  "frtu": "FRTU_2"})
    return {"nodes": nodes, "edges": edges}


CHAIN_LOADS = 60


def chain_episodes(seed: int, loads_per_feeder: int = CHAIN_LOADS) -> list[EpisodeInput]:
    """One dead meter near the head, mid-feeder, near the tie, on feeder 2."""
    a = loads_per_feeder
    spec = two_feeder_chain(a)
    jitter = max(1, a // 20)
    episodes = []
    for k, (centre, alarm_edge) in enumerate((
            (2 + jitter, 1),                # near feeder 1's head
            (a // 2 + 2, 1),                # mid-feeder
            (a + 1 - jitter, 1),            # near the tie
            (a + 2 + a // 2, 2 * a + 1))):  # on the other feeder
        rng = np.random.default_rng([seed, 2, k])
        node = centre + int(rng.integers(-jitter, jitter + 1))
        episodes.append(EpisodeInput(
            name=f"chain-{k}", spec=spec,
            meters=_one_meter_per_load(rng, spec, {node}),
            sim_seed=int(rng.integers(1 << 30)),
            alarm_edge=alarm_edge, truth=(node,),
            tampered_meters=(f"M-{node:03d}",)))
    return episodes


TAMPER_KINDS = (
    {"mode": "scale", "value": 0.0},
    {"mode": "scale", "value": 0.5},
    {"mode": "outage"},
)


def feeder_ring(n_feeders: int, loads_per_feeder: int) -> dict:
    """Chains of loads, one per feeder, whose far ends are tied in a ring.

    Sources take ids 1..F; feeder f's loads follow in order from its head.
    """
    nodes = [{"id": f + 1, "kind": "source"} for f in range(n_feeders)]
    edges: list[dict] = []
    ends = []
    for f in range(n_feeders):
        prev = f + 1
        for k in range(loads_per_feeder):
            nid = len(nodes) + 1
            nodes.append({"id": nid, "kind": "load"})
            edge = {"id": len(edges) + 1, "kind": "breaker" if k == 0 else "sectionalizer",
                    "from": prev, "to": nid}
            if k == 0:
                edge["frtu"] = f"FRTU_{f + 1}"
            edges.append(edge)
            prev = nid
        ends.append(prev)
    for f in range(n_feeders):
        edges.append({"id": len(edges) + 1, "kind": "tie", "from": ends[f],
                      "to": ends[(f + 1) % n_feeders]})
    return {"nodes": nodes, "edges": edges}


def detect_episodes(seed: int, count: int, loads_per_feeder: int = 20,
                    meters_per_node: int = 40) -> list[EpisodeInput]:
    """One bad meter among many on each node of a fixed three-feeder ring.

    The ring and the bad meter's node (spread evenly round the ring by
    episode index) are fixed, so the localization step between detection
    and ranking does the same work for every seed; the seed picks which
    meter on the node is bad, its tamper kind and every meter's base load.
    """
    spec = feeder_ring(3, loads_per_feeder)
    load_ids = [n["id"] for n in spec["nodes"] if n["kind"] == "load"]
    episodes = []
    for k in range(count):
        rng = np.random.default_rng([seed, 3, k])
        node = load_ids[(k * len(load_ids)) // count + loads_per_feeder // 4]
        bad = int(rng.integers(meters_per_node))
        tamper = TAMPER_KINDS[int(rng.integers(len(TAMPER_KINDS)))]
        meters = tuple(
            MeterSpec(
                meter_id=f"M-{n:03d}-{j:02d}", node=n, base_load_kwh=_base_load(rng),
                tamper=tamper if (n, j) == (node, bad) else None)
            for n in load_ids for j in range(meters_per_node))
        feeder = load_ids.index(node) // loads_per_feeder
        episodes.append(EpisodeInput(
            name=f"detect-{k}", spec=spec, meters=meters,
            sim_seed=int(rng.integers(1 << 30)),
            alarm_edge=_breaker_of(spec, feeder), truth=(node,),
            tampered_meters=(f"M-{node:03d}-{bad:02d}",)))
    return episodes


def scenario_document(episode: EpisodeInput, topology_file: str, intervals: int) -> dict:
    """Scenario JSON for the CLI, with the topology in a sibling file."""
    return {
        "topology": topology_file,
        "seed": episode.sim_seed,
        "noise": NOISE,
        "loss_factor": 0.0,
        "threshold": episode.threshold,
        "intervals": intervals,
        "alarm_edge": episode.alarm_edge,
        "ground_truth": list(episode.truth),
        "meters": [m.to_dict() for m in episode.meters],
    }
