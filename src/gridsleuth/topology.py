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
import reprlib
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import (
    BreakerNotAtSourceError,
    DanglingEndpointError,
    DimensionMismatchError,
    DuplicateIdError,
    InvalidIdError,
    NonRadialNormalStateError,
    SelfLoopError,
    TopologyError,
)


class NodeKind(Enum):
    SOURCE = "source"
    LOAD = "load"


class EdgeKind(Enum):
    BREAKER = "breaker"
    SECTIONALIZER = "sectionalizer"
    TIE = "tie"


@dataclass(frozen=True, slots=True)
class Node:
    id: int
    kind: NodeKind
    has_dg: bool = False


@dataclass(frozen=True, slots=True)
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
    _last_tree: tuple[bytes, StateTree] | None = field(
        default=None, init=False, repr=False, compare=False)

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
    def sectionalizers(self) -> list[bool]:
        """Per edge id, whether it is a sectionalizer; entry 0 is for no edge."""
        return [False] + [e.kind is EdgeKind.SECTIONALIZER for e in self.edges]

    @cached_property
    def load_ids(self) -> frozenset[int]:
        return frozenset(n.id for n in self.nodes if n.kind is NodeKind.LOAD)

    @cached_property
    def source_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if n.kind is NodeKind.SOURCE)

    @cached_property
    def incident(self) -> Incidence:
        return incidence_lists(self.n_nodes, [(e.u, e.v) for e in self.edges])

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

    def _cached(self, key: str, make) -> np.ndarray:
        arr = self._frozen_arrays.get(key)
        if arr is None:
            arr = make()
            arr.flags.writeable = False
            self._frozen_arrays[key] = arr
        return arr

    def tree(self, states: np.ndarray) -> StateTree:
        """The ``StateTree`` of a vector that ``check_states`` normalised.

        The last state labelled is remembered, keyed by the vector's bytes
        rather than by the array, which a caller may mutate in place; key
        and tree are stored as one pair, so neither is read without the
        other.
        """
        key = states.tobytes()
        last = self._last_tree
        if last is not None and last[0] == key:
            return last[1]
        tree = StateTree.build(self, states)
        object.__setattr__(self, "_last_tree", (key, tree))
        return tree

    def check_states(self, states: np.ndarray) -> np.ndarray:
        """Validate and normalize a switch vector to 0/1 uint8 of length |E|.

        Any nonzero entry reads as closed, as in ``states_to_string``.
        """
        arr = np.asarray(states)
        if arr.shape != (self.n_edges,):
            raise DimensionMismatchError(
                f"switch vector has shape {arr.shape}, expected ({self.n_edges},)")
        return (arr != 0).view(np.uint8)


def build_topology(spec: Mapping) -> Topology:
    """Construct and validate a Topology from a plain description.

    ``spec`` holds ``nodes: [{id, kind, dg?}]`` and
    ``edges: [{id, kind, from, to, frtu?}]``; ids must run 1..N in listed
    order, which fixes the canonical node and edge orderings. ``dg`` is a
    boolean, and only a load may carry a DG: cutting a DG off opens its
    node's edges, and on a source that would open the feeder's own
    breaker. Each breaker's FRTU (``FRTU_<id>`` when omitted or null) is a
    non-empty string naming that breaker alone, since readings and
    coverages are keyed by FRTU; only a breaker may name one.
    """
    if not isinstance(spec, Mapping):
        raise ValueError(f"topology must be a JSON object, got {reprlib.repr(spec)}")
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


E = TypeVar("E", bound=Enum)


def enum_field(name: str, kind: type[E], value) -> E:
    """``value`` as the member of ``kind`` that the input field ``name`` must
    hold; any other value raises ``ValueError`` naming the field and the
    allowed values."""
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(repr(member.value) for member in kind)
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}") from None


def field_error(value, owner: str, key: str) -> ValueError:
    """The error for a field ``key`` that could not be read from ``value``,
    the JSON value that ``owner`` names: either ``value`` is not an object,
    or it lacks ``key``."""
    if isinstance(value, Mapping):
        return ValueError(f'{owner} is missing "{key}"')
    return ValueError(f"{owner} must be a JSON object, got {reprlib.repr(value)}")


def item_name(kind: str, pos: int, item, id_key: str = "id") -> str:
    """How an error names ``item``, the ``pos``-th (from 1) ``kind`` of an
    input list: by its ``id_key`` value, or by its position without one."""
    if isinstance(item, Mapping) and id_key in item:
        return f"{kind} {item[id_key]}"
    return f"{kind} at position {pos}"


def load_topology(path: str | Path) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return build_topology(json.load(fh))


def _parse_nodes(items: Iterable[Mapping]) -> tuple[Node, ...]:
    nodes: list[Node] = []
    seen: set[int] = set()
    for pos, item in enumerate(items, start=1):
        try:
            nid = int_field("node id", item["id"])
        except (KeyError, TypeError) as exc:
            raise field_error(item, item_name("node", pos, item), exc.args[0]) from None
        if nid in seen:
            raise DuplicateIdError(f"duplicate node id {nid}")
        if nid != pos:
            raise InvalidIdError(
                f"node ids must be consecutive from 1 in listed order; "
                f"position {pos} has id {nid}")
        seen.add(nid)
        kind = enum_field(f'node {nid} "kind"', NodeKind, item.get("kind", "load"))
        has_dg = item.get("dg", False)
        if type(has_dg) is not bool:
            raise ValueError(f"node {nid} \"dg\" must be true or false, got {has_dg!r}")
        if has_dg and kind is NodeKind.SOURCE:
            raise TopologyError(
                f"node {nid} is a source and cannot carry a DG; \"dg\" applies to loads")
        nodes.append(Node(id=nid, kind=kind, has_dg=has_dg))
    return tuple(nodes)


def _parse_edges(items: Iterable[Mapping], nodes: tuple[Node, ...]) -> tuple[Edge, ...]:
    node_ids = {n.id for n in nodes}
    edges: list[Edge] = []
    seen: set[int] = set()
    seen_pairs: set[frozenset[int]] = set()
    breaker_of: dict[str, int] = {}  # FRTU -> its breaker edge
    for pos, item in enumerate(items, start=1):
        try:
            eid, u, v = item["id"], item["from"], item["to"]
        except (KeyError, TypeError) as exc:
            raise field_error(item, item_name("edge", pos, item), exc.args[0]) from None
        eid = int_field("edge id", eid)
        if eid in seen:
            raise DuplicateIdError(f"duplicate edge id {eid}")
        if eid != pos:
            raise InvalidIdError(
                f"edge ids must be consecutive from 1 in listed order; "
                f"position {pos} has id {eid}")
        seen.add(eid)
        u = int_field(f"edge {eid} from", u)
        v = int_field(f"edge {eid} to", v)
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
        kind = enum_field(f'edge {eid} "kind"', EdgeKind, item.get("kind", "sectionalizer"))
        frtu = item.get("frtu")
        if kind is not EdgeKind.BREAKER and frtu is not None:
            raise TopologyError(f"edge {eid} is a {kind.value} and cannot carry an FRTU")
        if kind is EdgeKind.BREAKER:
            if frtu is None:
                frtu = f"FRTU_{eid}"
            elif not (isinstance(frtu, str) and frtu):
                raise ValueError(f"edge {eid} \"frtu\" must be a non-empty string, got {frtu!r}")
            first = breaker_of.setdefault(frtu, eid)
            if first != eid:
                raise DuplicateIdError(
                    f"FRTU {frtu} names both breaker edges {first} and {eid}")
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
    # The normal state (ties open) must feed every load from exactly one
    # substation source: no load outside the root's component, and no loop.
    normal = topo.normal_states()
    comp = label(topo.incident, normal.tolist(), topo.source_ids)[0]
    unfed = [node for node, root in enumerate(comp) if root]
    if unfed:
        raise NonRadialNormalStateError(
            f"loads {unfed} have no substation source in the normal state")
    if _closes_loop(topo, normal, comp):
        raise NonRadialNormalStateError(
            "normal state closes a loop or joins two substation sources")


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


Incidence = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


def incidence_lists(n_nodes: int, ends: Sequence[tuple[int, int]]) -> Incidence:
    """The edges (u, v) of ``ends`` at each node 1..n, as ``label`` walks them.

    Edges are listed at a node in their order in ``ends``, and entry 0,
    the virtual root's, is empty. Edge j's far end from node x is its end
    id sum minus x.
    """
    at: list[list[int]] = [[] for _ in range(n_nodes + 1)]
    for j, (u, v) in enumerate(ends):
        at[u].append(j)
        at[v].append(j)
    return tuple(map(tuple, at)), tuple(u + v for u, v in ends)


def label(
    incidence: Incidence, closed: Sequence[int], sources: Sequence[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Breadth-first labelling of a switched graph from a virtual root.

    Edge j of ``incidence`` conducts when ``closed[j]`` is nonzero. The
    root, node 0, links to each node of ``sources``, so component 0 is the
    set they feed; any other component is rooted at its smallest node.
    Returns, per node, its component root, its parent (-1 at a root), the
    id of the edge to its parent (0 at a root and a source), and the visit
    order, which lists parents before their children.
    """
    at, ends = incidence
    size = len(at)
    comp, parent, parent_edge = [-1] * size, [-1] * size, [0] * size
    order: list[int] = []
    for root in range(size):
        if comp[root] >= 0:
            continue
        comp[root] = root
        queue = [root]
        if not root:
            for s in sources:
                comp[s], parent[s] = 0, 0
            queue += sources
        for x in queue:
            for j in at[x]:
                if closed[j]:
                    y = ends[j] - x
                    if comp[y] < 0:
                        comp[y], parent[y], parent_edge[y] = root, x, j + 1
                        queue.append(y)
        order += queue
    return comp, parent, parent_edge, order


def _closes_loop(topo: Topology, states: np.ndarray, comp: Sequence[int]) -> bool:
    """Whether the closed edges plus one link per source outnumber the forest's edges."""
    links = int(np.count_nonzero(states)) + len(topo.source_ids)
    return links > len(comp) - len(set(comp))


@dataclass(frozen=True)
class StateTree:
    """A switch state as a rooted forest, indexed by node id.

    The sources hang off a virtual root, node 0, so every fed node
    descends from it and component 0 is the fed set: the transmission grid
    ties feeder heads together upstream, so a source-to-source path already
    parallels two feeders. Any other component is rooted at its smallest
    node. ``comp`` is the root of a node's component, ``parent_edge`` is 0
    above a source and a root, and ``order`` lists parents before their
    children. ``closed`` is the switch vector, 1 per closed edge.
    ``depth``, ``feeder``, the breaker heading a node's feeder (0 for none),
    and ``coverage`` are derived on first read.
    """

    comp: list[int]
    parent: list[int]
    parent_edge: list[int]
    order: list[int]
    topo: Topology = field(compare=False, repr=False)
    closed: list[int] = field(compare=False, repr=False)

    @classmethod
    def build(cls, topo: Topology, states: np.ndarray) -> "StateTree":
        """Breadth-first labelling of the closed edges from the virtual root."""
        closed = states.tolist()
        return cls(*label(topo.incident, closed, topo.source_ids), topo, closed)

    @cached_property
    def depth(self) -> list[int]:
        parent = self.parent
        depth = [0] * len(parent)
        for x in self.order:
            up = parent[x]
            if up >= 0:
                depth[x] = depth[up] + 1
        return depth

    @cached_property
    def feeder(self) -> list[int]:
        parent, parent_edge, breakers = self.parent, self.parent_edge, self.topo.frtu_map
        feeder = [0] * len(parent)
        for x in self.order:
            up = parent[x]
            if up >= 0:
                edge = parent_edge[x]
                feeder[x] = edge if edge in breakers else feeder[up]
        return feeder

    @cached_property
    def coverage(self) -> dict[str, frozenset[int]]:
        """Load nodes metered by each FRTU, in breaker id order.

        A load is covered by an FRTU when opening that breaker (and nothing
        else) de-energizes it. The loads below breaker b in the tree are
        b's, unless a closed edge off the tree reaches b's section: a
        sectionalizer or tie to another feeder's node joins the two
        sections, and a breaker gives b's section a second feeder head.
        Either way no single breaker carries them. Feeder 0, what a source
        reaches without crossing a breaker or what no source reaches, is
        covered by none.
        """
        topo, feeder, breakers = self.topo, self.feeder, self.topo.frtu_map
        in_tree = set(self.parent_edge)
        shared = {0}
        for j, shut in enumerate(self.closed, start=1):
            if shut and j not in in_tree:
                edge = topo.edges[j - 1]
                a, b = feeder[edge.u], feeder[edge.v]
                if a != b or j in breakers:
                    shared.update((a, b))
        covered: dict[int, list[int]] = {eid: [] for eid in sorted(breakers)}
        for node in topo.load_ids:
            eid = feeder[node]
            if eid not in shared:
                covered[eid].append(node)
        return {breakers[eid]: frozenset(nodes) for eid, nodes in covered.items()}

    def count_below(self, members: Iterable[int]) -> list[int]:
        """Per node, how many of ``members`` lie in its subtree."""
        parent = self.parent
        below = [0] * len(parent)
        for x in members:
            below[x] = 1
        for x in reversed(self.order):
            up = parent[x]
            if up >= 0:
                below[up] += below[x]
        return below

    def loop(self, u: int, v: int) -> Iterator[tuple[int, int, int]]:
        """Tree edges on the loop that closing an edge (u, v) would make.

        Yields (edge id, node below it, the endpoint it would be fed from)
        for each edge of the path u -> LCA -> v; edge id 0 is a link to the
        virtual root. Nothing when u and v lie in different components.
        """
        if self.comp[u] != self.comp[v]:
            return
        depth, parent, parent_edge = self.depth, self.parent, self.parent_edge
        a, b = u, v
        while a != b:
            if depth[a] >= depth[b]:
                yield parent_edge[a], a, v
                a = parent[a]
            else:
                yield parent_edge[b], b, u
                b = parent[b]


def validate_operating_state(topo: Topology, states: np.ndarray) -> OperatingState:
    """Check one switch configuration against the keep-power-on rules.

    The state's ``StateTree`` (``Topology.tree``, so a state labelled just
    before is not labelled again) answers all three questions, and rides
    on the result for callers that go on to read the state as a tree. The
    closed edges plus one virtual link per source close a loop (paralleling
    two feeders counts) exactly when they outnumber the forest's edges.
    Component 0 is the fed set. Any other component holding a DG is an
    island; islands are ordered by their smallest node id. A load in
    neither is dark; one inside a DG island is microgrid-supplied and not
    a violation.
    """
    states = topo.check_states(states)
    tree = topo.tree(states)
    comp = tree.comp
    has_loop = _closes_loop(topo, states, comp)
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
