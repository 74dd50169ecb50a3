"""Energization analysis of a switched network.

The central operation: given the switch states, which nodes receive power
from the substation sources? That is reachability over closed switches,
answered by one union-find labelling of the switched network. Suspect sets
and outage accounting are phrased in terms of this vector; FRTU coverage
labels the closed non-breaker edges once and reads every feeder off that.
"""

from __future__ import annotations

import numpy as np

from .errors import NotABreakerError
from .topology import (
    EdgeKind,
    Topology,
    component_roots,
    incidence_pairs,
    source_reachable,
)


def energized_from_incidence(
    incidence: np.ndarray, states: np.ndarray, sources: np.ndarray
) -> np.ndarray:
    """Energized vector (uint8, one entry per incidence row) from raw matrices.

    A node is energized when the closed columns connect it to a row whose
    ``sources`` entry is nonzero.
    """
    pairs = incidence_pairs(incidence, states)
    return source_reachable(np.asarray(incidence).shape[0], pairs, sources)


def energized_nodes(
    topo: Topology, states: np.ndarray, sources: np.ndarray | None = None
) -> np.ndarray:
    """Per-node energized flags (uint8, index = node id - 1).

    ``sources`` defaults to the substation sources; pass a custom vector to
    model DG-backed islands or hypothetical injections.
    """
    states = topo.check_states(states)
    if sources is None:
        sources = topo.source_vector()
    else:
        sources = topo.check_node_flags(sources)
    return source_reachable(topo.n_nodes, topo.closed_pairs(states), sources)


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
    One labelling of the closed non-breaker edges answers this for every
    breaker at once, for any switch vector, loops included. The only closed
    edges leaving such a section are breakers, and each leads straight to a
    source. So a load depends on breaker b alone exactly when its section
    holds no source and b is the section's only closed breaker.
    """
    states = topo.check_states(states)
    breakers = sorted(topo.frtu_map)
    sections = states.copy()
    sections[[eid - 1 for eid in breakers]] = 0
    roots = component_roots(topo, sections)
    fed = {roots[i] for i in np.flatnonzero(topo.source_vector()).tolist()}
    feeding: dict[int, set[int]] = {}
    for eid in breakers:
        if states[eid - 1]:
            edge = topo.edge(eid)
            for end in (edge.u, edge.v):
                feeding.setdefault(roots[end - 1], set()).add(eid)
    only = {
        root: next(iter(eids))
        for root, eids in feeding.items() if len(eids) == 1 and root not in fed
    }
    covered: dict[int, list[int]] = {eid: [] for eid in breakers}
    for node in topo.load_ids:
        eid = only.get(roots[node - 1])
        if eid is not None:
            covered[eid].append(node)
    return {topo.frtu_map[eid]: frozenset(covered[eid]) for eid in breakers}
