"""Energization analysis of a switched network.

The central operation: given the switch states, which nodes receive power
from the substation sources? That is reachability over closed switches,
answered by one breadth-first labelling (``topology.label``) from a virtual
root linked to the sources. Suspect sets and outage accounting are phrased
in terms of this vector. A switch state's labelling from the substation
sources is its ``StateTree``, and ``Topology.tree`` remembers the last one:
energization from those sources (with or without extra feeds such as DGs)
and FRTU coverage read it, so validating a state and then simulating it
labels that state once.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotABreakerError
from .topology import EdgeKind, Topology, incidence_lists, incidence_pairs, label


def energized_from_incidence(
    incidence: np.ndarray, states: np.ndarray, sources: np.ndarray
) -> np.ndarray:
    """Energized vector (uint8, one entry per incidence row) from raw matrices.

    A node is energized when the closed columns connect it to a row whose
    ``sources`` entry is nonzero.
    """
    pairs = incidence_pairs(incidence, states)
    n = np.asarray(incidence).shape[0]
    feeds = _source_ids(sources, n)
    incidence = incidence_lists(n, [(u + 1, v + 1) for u, v in pairs])
    return _fed(label(incidence, [1] * len(pairs), feeds)[0])


def energized_nodes(
    topo: Topology, states: np.ndarray, sources: np.ndarray | None = None
) -> np.ndarray:
    """Per-node energized flags (uint8, index = node id - 1).

    ``sources`` defaults to the substation sources; pass a custom vector to
    model DG-backed islands or hypothetical injections. A vector that marks
    every substation source reads the state's ``StateTree``: a node is fed
    when its component is the sources' or holds a marked node. Any other
    vector labels the state from its own marks.
    """
    states = topo.check_states(states)
    feeds = topo.source_ids if sources is None else _source_ids(sources, topo.n_nodes)
    if not set(topo.source_ids).issubset(feeds):
        return _fed(label(topo.incident, states.tolist(), feeds)[0])
    comp = topo.tree(states).comp
    roots = {comp[s] for s in feeds}
    return np.array([root in roots for root in comp[1:]], dtype=np.uint8)


def _source_ids(sources: np.ndarray, n_nodes: int) -> list[int]:
    """Ids 1..n of the nodes whose entry in a per-node source vector is nonzero."""
    src = np.asarray(sources)
    if src.shape != (n_nodes,):
        raise DimensionMismatchError(
            f"source vector has shape {src.shape}, expected ({n_nodes},)")
    return (np.flatnonzero(src) + 1).tolist()


def _fed(comp: list[int]) -> np.ndarray:
    """0/1 flags of the nodes 1..n that a labelling puts in the root's component."""
    return (np.array(comp, dtype=np.intp)[1:] == 0).view(np.uint8)


def suspect_nodes(
    topo: Topology, states: np.ndarray, alarm_edge: int
) -> frozenset[int]:
    """Nodes that lose power when the alarmed feeder breaker opens.

    These are the customers whose meters feed the alarmed FRTU's aggregate,
    plus any loads already islanded on a DG, which are dark either way.
    """
    edge = topo.edge(alarm_edge)
    if edge.kind is not EdgeKind.BREAKER:
        raise NotABreakerError(
            f"edge {alarm_edge} is a {edge.kind.value}, not a feeder breaker")
    opened = topo.check_states(states).copy()
    opened[alarm_edge - 1] = 0
    vf = energized_nodes(topo, opened)
    return frozenset(int(i) + 1 for i in np.flatnonzero(vf == 0))


def frtu_coverage(topo: Topology, states: np.ndarray) -> dict[str, frozenset[int]]:
    """Load nodes metered by each FRTU under the given switch states.

    A node is covered by an FRTU when opening that breaker (and nothing
    else) de-energizes it: the node's power flows through that feeder head.
    The state's ``StateTree`` answers this for every breaker at once, for
    any switch vector, loops included (``StateTree.coverage``). Each call
    returns its own dict.
    """
    return dict(topo.tree(topo.check_states(states)).coverage)
