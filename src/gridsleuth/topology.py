"""Radial distribution network model and its matrix encodings.

A network is an undirected simple graph whose nodes are substation sources
and load points and whose edges are all switchable: feeder breakers (the
FRTU-monitored feeder heads), sectionalizers, and normally-open tie
switches. The graph is immutable after construction; matrix encodings and
switch-state vectors are plain numpy arrays indexed by the canonical
node/edge order (ids are 1-based, array positions 0-based).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    BreakerNotAtSourceError,
    DanglingEndpointError,
    DimensionMismatchError,
    DuplicateIdError,
    InvalidIdError,
    NonRadialNormalStateError,
    SelfLoopError,
)


class NodeKind(Enum):
    SOURCE = "source"
    LOAD = "load"


class EdgeKind(Enum):
    BREAKER = "breaker"
    SECTIONALIZER = "sectionalizer"
    TIE = "tie"


@dataclass(frozen=True)
class Node:
    id: int
    kind: NodeKind
    has_dg: bool = False


@dataclass(frozen=True)
class Edge:
    id: int
    kind: EdgeKind
    u: int
    v: int
    frtu: str | None = None

    @property
    def normally_closed(self) -> bool:
        # Ties are normally open; breakers and sectionalizers normally closed.
        return self.kind is not EdgeKind.TIE

    def other(self, node_id: int) -> int:
        return self.v if node_id == self.u else self.u


@dataclass(frozen=True)
class OperatingState:
    """Validation outcome for one switch configuration."""

    has_loop: bool
    dark_loads: tuple[int, ...]
    dg_islands: tuple[frozenset[int], ...]
    violations: tuple[str, ...]
    tree: StateTree = field(compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Topology:
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    _frozen_arrays: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def node(self, node_id: int) -> Node:
        self._check_node_id(node_id)
        return self.nodes[node_id - 1]

    def edge(self, edge_id: int) -> Edge:
        self._check_edge_id(edge_id)
        return self.edges[edge_id - 1]

    def _check_node_id(self, node_id: int) -> None:
        if not 1 <= node_id <= self.n_nodes:
            raise InvalidIdError(f"node id {node_id} outside 1..{self.n_nodes}")

    def _check_edge_id(self, edge_id: int) -> None:
        if not 1 <= edge_id <= self.n_edges:
            raise InvalidIdError(f"edge id {edge_id} outside 1..{self.n_edges}")

    @cached_property
    def frtu_map(self) -> dict[int, str]:
        """Breaker edge id -> FRTU identifier."""
        return {e.id: e.frtu for e in self.edges if e.kind is EdgeKind.BREAKER}

    @cached_property
    def frtu_edges(self) -> dict[str, int]:
        return {frtu: eid for eid, frtu in self.frtu_map.items()}

    @cached_property
    def load_ids(self) -> frozenset[int]:
        return frozenset(n.id for n in self.nodes if n.kind is NodeKind.LOAD)

    def normal_states(self) -> np.ndarray:
        """Switch vector of the normal operating state (ties open)."""
        return self._cached("normal", lambda: np.array(
            [1 if e.normally_closed else 0 for e in self.edges], dtype=np.uint8))

    def source_vector(self) -> np.ndarray:
        """Per-node flags marking substation sources."""
        return self._cached("sources", lambda: np.array(
            [1 if n.kind is NodeKind.SOURCE else 0 for n in self.nodes], dtype=np.uint8))

    def dg_vector(self) -> np.ndarray:
        """Per-node flags marking distributed generators."""
        return self._cached("dg", lambda: np.array(
            [1 if n.has_dg else 0 for n in self.nodes], dtype=np.uint8))

    def incidence(self) -> np.ndarray:
        return self._cached("incidence", lambda: incidence_matrix(self))

    def closed_pairs(self, states: np.ndarray) -> list[list[int]]:
        """Endpoints (0-based node positions) of the closed edges."""
        return self._cached("ends", lambda: np.array(
            [(e.u - 1, e.v - 1) for e in self.edges], dtype=np.intp
        ).reshape(-1, 2))[np.asarray(states) != 0].tolist()

    def _cached(self, key: str, make) -> np.ndarray:
        arr = self._frozen_arrays.get(key)
        if arr is None:
            arr = make()
            arr.flags.writeable = False
            self._frozen_arrays[key] = arr
        return arr

    def check_states(self, states: np.ndarray) -> np.ndarray:
        """Validate and normalize a switch vector to uint8 of length |E|."""
        arr = np.asarray(states)
        if arr.shape != (self.n_edges,):
            raise DimensionMismatchError(
                f"switch vector has shape {arr.shape}, expected ({self.n_edges},)")
        return arr.astype(np.uint8)

    def check_node_flags(self, flags: np.ndarray) -> np.ndarray:
        arr = np.asarray(flags)
        if arr.shape != (self.n_nodes,):
            raise DimensionMismatchError(
                f"source vector has shape {arr.shape}, expected ({self.n_nodes},)")
        return arr.astype(np.uint8)


def build_topology(spec: Mapping) -> Topology:
    """Construct and validate a Topology from a plain description.

    ``spec`` holds ``nodes: [{id, kind, dg?}]`` and
    ``edges: [{id, kind, from, to, frtu?}]``; ids must run 1..N in listed
    order, which fixes the canonical node and edge orderings.
    """
    nodes = _parse_nodes(spec.get("nodes", ()))
    edges = _parse_edges(spec.get("edges", ()), nodes)
    topo = Topology(nodes=nodes, edges=edges)
    _validate_structure(topo)
    return topo


def int_field(name: str, value) -> int:
    """``value`` as the integer that the input field ``name`` must hold.

    A boolean, or a number with a fractional part (NaN and infinities
    included), raises ``ValueError`` naming the field rather than being
    truncated by ``int()``.
    """
    if type(value) is int:
        return value
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an integer, got {value!r}") from exc


def load_topology(path: str | Path) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return build_topology(json.load(fh))


def _parse_nodes(items: Iterable[Mapping]) -> tuple[Node, ...]:
    nodes: list[Node] = []
    seen: set[int] = set()
    for pos, item in enumerate(items, start=1):
        nid = int_field("node id", item["id"])
        if nid in seen:
            raise DuplicateIdError(f"duplicate node id {nid}")
        if nid != pos:
            raise InvalidIdError(
                f"node ids must be consecutive from 1 in listed order; "
                f"position {pos} has id {nid}")
        seen.add(nid)
        kind = NodeKind(item.get("kind", "load"))
        has_dg = bool(item.get("dg", False))
        nodes.append(Node(id=nid, kind=kind, has_dg=has_dg))
    return tuple(nodes)


def _parse_edges(items: Iterable[Mapping], nodes: tuple[Node, ...]) -> tuple[Edge, ...]:
    node_ids = {n.id for n in nodes}
    edges: list[Edge] = []
    seen: set[int] = set()
    seen_pairs: set[frozenset[int]] = set()
    for pos, item in enumerate(items, start=1):
        eid = int_field("edge id", item["id"])
        if eid in seen:
            raise DuplicateIdError(f"duplicate edge id {eid}")
        if eid != pos:
            raise InvalidIdError(
                f"edge ids must be consecutive from 1 in listed order; "
                f"position {pos} has id {eid}")
        seen.add(eid)
        u = int_field(f"edge {eid} from", item["from"])
        v = int_field(f"edge {eid} to", item["to"])
        if u == v:
            raise SelfLoopError(f"edge {eid} connects node {u} to itself")
        for endpoint in (u, v):
            if endpoint not in node_ids:
                raise DanglingEndpointError(
                    f"edge {eid} references missing node {endpoint}")
        pair = frozenset((u, v))
        if pair in seen_pairs:
            raise DuplicateIdError(f"duplicate edge between nodes {u} and {v}")
        seen_pairs.add(pair)
        kind = EdgeKind(item.get("kind", "sectionalizer"))
        frtu = item.get("frtu")
        if kind is EdgeKind.BREAKER and frtu is None:
            frtu = f"FRTU_{eid}"
        edges.append(Edge(id=eid, kind=kind, u=u, v=v, frtu=frtu))
    return tuple(edges)


def _validate_structure(topo: Topology) -> None:
    sources = {n.id for n in topo.nodes if n.kind is NodeKind.SOURCE}
    for edge in topo.edges:
        if edge.kind is EdgeKind.BREAKER:
            at_source = (edge.u in sources) + (edge.v in sources)
            if at_source != 1:
                raise BreakerNotAtSourceError(
                    f"breaker edge {edge.id} must join exactly one source node "
                    f"to the feeder (found {at_source} source endpoints)")
    # Normal state (ties open) must be a forest giving every load exactly
    # one substation source.
    components = closed_components(topo, topo.normal_states())
    for comp in components:
        n_sources = len(comp & sources)
        if n_sources == 0 and any(
            topo.node(i).kind is NodeKind.LOAD for i in comp
        ):
            raise NonRadialNormalStateError(
                f"loads {sorted(comp)} have no substation source in the normal state")
        if n_sources > 1:
            raise NonRadialNormalStateError(
                f"component {sorted(comp)} joins {n_sources} substation sources")
    if not _union_all(list(range(topo.n_nodes)), topo.closed_pairs(topo.normal_states())):
        raise NonRadialNormalStateError("normal state contains a closed loop")


def incidence_matrix(topo: Topology) -> np.ndarray:
    """|V| x |E| binary matrix; column j flags edge j's two endpoints."""
    m = np.zeros((topo.n_nodes, topo.n_edges), dtype=np.uint8)
    for j, edge in enumerate(topo.edges):
        m[edge.u - 1, j] = 1
        m[edge.v - 1, j] = 1
    return m


def adjacency_from_incidence(incidence: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Adjacency of the switched topology from its masked incidence matrix.

    Open edges (state 0) are zeroed column-wise before the product; the
    resulting node-by-node matrix is binarized and its diagonal cleared, so
    the output is symmetric with zero diagonal whatever the input.
    """
    inc, st = _check_switched_incidence(incidence, states)
    masked = inc * st.astype(np.uint8)[np.newaxis, :]
    product = masked.astype(bool) @ masked.astype(bool).T
    adjacency = product.astype(np.uint8)
    np.fill_diagonal(adjacency, 0)
    return adjacency


def incidence_pairs(incidence: np.ndarray, states: np.ndarray) -> list[tuple[int, int]]:
    """Node pairs (0-based rows) that the closed columns of an incidence join.

    Each closed column links every row it flags, exactly the node pairs its
    adjacency product would mark; consecutive flagged rows suffice to give
    the same connectivity.
    """
    inc, st = _check_switched_incidence(incidence, states)
    cols, rows = np.nonzero(inc[:, st != 0].T)
    same_column = cols[1:] == cols[:-1]
    return list(zip(rows[:-1][same_column].tolist(), rows[1:][same_column].tolist()))


def _check_switched_incidence(
    incidence: np.ndarray, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    inc = np.asarray(incidence, dtype=np.uint8)
    st = np.asarray(states)
    if inc.ndim != 2:
        raise DimensionMismatchError(f"incidence matrix must be 2-d, got {inc.ndim}-d")
    if st.shape != (inc.shape[1],):
        raise DimensionMismatchError(
            f"switch vector has shape {st.shape}, expected ({inc.shape[1]},)")
    return inc, st


def _find(parent: list[int], x: int) -> int:
    """Root of ``x`` in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union_all(parent: list[int], pairs: Iterable[Sequence[int]]) -> bool:
    """Join the sets of every pair in ``parent`` (Tarjan, JACM 1975).

    Returns True when each pair joined two different sets, i.e. the pairs
    closed no cycle.
    """
    acyclic = True
    for u, v in pairs:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            acyclic = False
        else:
            parent[ru] = rv
    return acyclic


def _component_roots(n: int, pairs: Iterable[Sequence[int]]) -> list[int]:
    parent = list(range(n))
    _union_all(parent, pairs)
    return [_find(parent, i) for i in range(n)]


def source_reachable(
    n_nodes: int, pairs: Iterable[Sequence[int]], sources: np.ndarray
) -> np.ndarray:
    """0/1 flags of the nodes 0..n-1 that ``pairs`` connect to a source.

    One union-find labelling: a node is reached when its component holds a
    node whose ``sources`` entry is nonzero.
    """
    src = np.asarray(sources)
    if src.shape != (n_nodes,):
        raise DimensionMismatchError(
            f"source vector has shape {src.shape}, expected ({n_nodes},)")
    roots = _component_roots(n_nodes, pairs)
    fed = {roots[i] for i in np.flatnonzero(src).tolist()}
    return np.fromiter((r in fed for r in roots), dtype=np.uint8, count=n_nodes)


def component_roots(topo: Topology, states: np.ndarray) -> list[int]:
    """Component label of every node (by position) over closed edges only.

    Two nodes share a label exactly when closed edges connect them; a
    label is the position of one node of its component.
    """
    return _component_roots(topo.n_nodes, topo.closed_pairs(topo.check_states(states)))


def closed_components(topo: Topology, states: np.ndarray) -> list[set[int]]:
    """Connected components (as node-id sets) over closed edges only."""
    groups: dict[int, set[int]] = {}
    for i, root in enumerate(component_roots(topo, states)):
        groups.setdefault(root, set()).add(i + 1)
    return list(groups.values())


@dataclass(frozen=True)
class StateTree:
    """A switch state as a rooted forest, indexed by node id.

    The sources hang off a virtual root, node 0, so every fed node
    descends from it and component 0 is the fed set: the transmission grid
    ties feeder heads together upstream, so a source-to-source path already
    parallels two feeders. Any other component is rooted at its smallest
    node. ``parent_edge`` is 0 above a source and a root, ``feeder`` is the
    breaker heading a node's feeder (0 for none), ``comp`` is the root of
    its component, and ``order`` lists parents before their children.
    """

    parent: list[int]
    parent_edge: list[int]
    depth: list[int]
    feeder: list[int]
    comp: list[int]
    order: list[int]

    @classmethod
    def build(cls, topo: Topology, states: np.ndarray) -> "StateTree":
        """Breadth-first labelling of the closed edges from the virtual root."""
        size = topo.n_nodes + 1
        adj: list[list[tuple[int, int, bool]]] = [[] for _ in range(size)]
        for j in np.flatnonzero(states).tolist():
            e = topo.edges[j]
            breaker = e.kind is EdgeKind.BREAKER
            adj[e.u].append((e.v, e.id, breaker))
            adj[e.v].append((e.u, e.id, breaker))
        adj[0] = [(s + 1, 0, False) for s in np.flatnonzero(topo.source_vector()).tolist()]
        parent, parent_edge = [-1] * size, [0] * size
        depth, feeder, comp = [0] * size, [0] * size, [-1] * size
        order: list[int] = []
        for root in range(size):
            if comp[root] >= 0:
                continue
            comp[root] = root
            head = len(order)
            order.append(root)
            while head < len(order):
                x = order[head]
                head += 1
                for y, eid, breaker in adj[x]:
                    if comp[y] >= 0:
                        continue
                    comp[y] = root
                    parent[y], parent_edge[y], depth[y] = x, eid, depth[x] + 1
                    feeder[y] = eid if breaker else feeder[x]
                    order.append(y)
        return cls(parent, parent_edge, depth, feeder, comp, order)

    def count_below(self, members: Iterable[int]) -> list[int]:
        """Per node, how many of ``members`` lie in its subtree."""
        below = [0] * len(self.parent)
        for x in members:
            below[x] = 1
        for x in reversed(self.order):
            if self.parent[x] >= 0:
                below[self.parent[x]] += below[x]
        return below

    def loop(self, u: int, v: int) -> Iterator[tuple[int, int, int]]:
        """Tree edges on the loop that closing an edge (u, v) would make.

        Yields (edge id, node below it, the endpoint it would be fed from)
        for each edge of the path u -> LCA -> v; edge id 0 is a link to the
        virtual root. Nothing when u and v lie in different components.
        """
        if self.comp[u] != self.comp[v]:
            return
        a, b = u, v
        while a != b:
            if self.depth[a] >= self.depth[b]:
                yield self.parent_edge[a], a, v
                a = self.parent[a]
            else:
                yield self.parent_edge[b], b, u
                b = self.parent[b]


def validate_operating_state(topo: Topology, states: np.ndarray) -> OperatingState:
    """Check one switch configuration against the keep-power-on rules.

    The state's ``StateTree`` answers all three questions, and rides on
    the result for callers that go on to read the state as a tree. The
    closed edges plus one virtual link per source close a loop (paralleling
    two feeders counts) exactly when they outnumber the forest's edges.
    Component 0 is the fed set. Any other component holding a DG is an
    island; islands are ordered by their smallest node id. A load in
    neither is dark; one inside a DG island is microgrid-supplied and not
    a violation.
    """
    states = topo.check_states(states)
    tree = StateTree.build(topo, states)
    links = int(np.count_nonzero(states)) + int(np.count_nonzero(topo.source_vector()))
    comp = tree.comp
    has_loop = links > len(comp) - len(set(comp))
    dg_roots = {comp[i + 1] for i in np.flatnonzero(topo.dg_vector()).tolist()} - {0}
    islands: dict[int, set[int]] = {}
    dark: list[int] = []  # only loads: every source sits in the fed component
    for node_id, root in enumerate(comp[1:], start=1):
        if root in dg_roots:
            islands.setdefault(root, set()).add(node_id)
        elif root:
            dark.append(node_id)
    dark_loads = tuple(dark)

    violations: list[str] = []
    if has_loop:
        violations.append("closed loop between feeders")
    if dark_loads:
        violations.append(f"de-energized loads outside any microgrid: {list(dark_loads)}")
    return OperatingState(
        has_loop=has_loop,
        dark_loads=dark_loads,
        dg_islands=tuple(frozenset(nodes) for nodes in islands.values()),
        violations=tuple(violations),
        tree=tree,
    )


def states_from_string(bits: str, topo: Topology | None = None) -> np.ndarray:
    """Parse a switch vector like ``"1101111"`` (1 = closed)."""
    if not bits or any(c not in "01" for c in bits):
        raise DimensionMismatchError(f"switch string must be over 0/1, got {bits!r}")
    arr = np.array([int(c) for c in bits], dtype=np.uint8)
    if topo is not None:
        arr = topo.check_states(arr)
    return arr


def states_to_string(states: Sequence[int] | np.ndarray) -> str:
    """Switch vector as ``"1101111"``: any nonzero entry reads as closed."""
    bits = (np.asarray(states) != 0).astype(np.uint8) + ord("0")
    return bits.tobytes().decode("ascii")
