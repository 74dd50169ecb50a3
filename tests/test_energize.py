"""Energization against an independent reachability oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsleuth.energize import (
    energized_from_incidence,
    energized_nodes,
    frtu_coverage,
    suspect_nodes,
)
from gridsleuth.errors import DimensionMismatchError, NotABreakerError
from gridsleuth.networks import ct8
from gridsleuth.topology import (
    NodeKind,
    states_from_string,
    states_to_string,
    validate_operating_state,
)

from episode_fuzz import make_episode, make_mesh


def bfs_reachable(topo, states, sources):
    """Plain adjacency-list flood fill; shares no code with the package."""
    neighbors = {n.id: [] for n in topo.nodes}
    for j, e in enumerate(topo.edges):
        if states[j]:
            neighbors[e.u].append(e.v)
            neighbors[e.v].append(e.u)
    seen = {i + 1 for i, s in enumerate(sources) if s}
    frontier = list(seen)
    while frontier:
        nxt = []
        for node in frontier:
            for nb in neighbors[node]:
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return np.array(
        [1 if n.id in seen else 0 for n in topo.nodes], dtype=np.uint8)


def test_ct8_normal_energizes_everything():
    t = ct8()
    vf = energized_nodes(t, states_from_string("1110111", t))
    assert vf.tolist() == [1] * 8


def test_ct8_isolated_state_darkens_only_node6():
    t = ct8()
    vf = energized_nodes(t, states_from_string("1111001", t))
    assert vf.tolist() == [1, 1, 1, 1, 1, 0, 1, 1]


def test_suspect_set_is_zero_set_of_breaker_opening():
    t = ct8()
    assert suspect_nodes(t, t.normal_states(), 7) == {5, 6, 7}
    assert suspect_nodes(t, t.normal_states(), 1) == {2, 3, 4}


def test_opening_requires_breaker():
    t = ct8()
    with pytest.raises(NotABreakerError):
        suspect_nodes(t, t.normal_states(), 4)


def test_custom_source_vector():
    t = ct8()
    # Power only from the DG at node 6 with the island cut applied.
    dg_only = t.dg_vector()
    vf = energized_nodes(t, states_from_string("1111001", t), sources=dg_only)
    assert vf.tolist() == [0, 0, 0, 0, 0, 1, 0, 0]


@pytest.mark.parametrize("closed", [256, 0.5, -1, True])
@pytest.mark.parametrize("bits", ["1110111", "1111001", "1101111", "1111111"])
def test_every_reader_takes_a_nonzero_entry_as_closed(closed, bits):
    # 256 wraps to 0 and 0.5 truncates to 0 in a uint8 cast; each must
    # still read as closed, as states_to_string and the incidence reads do.
    t = ct8()
    plain = states_from_string(bits, t)
    raw = np.where(plain == 1, np.array(closed), np.zeros((), np.array(closed).dtype))
    assert raw.dtype != np.uint8
    assert states_to_string(raw) == bits
    assert t.check_states(raw).tolist() == plain.tolist()
    expect = validate_operating_state(t, plain)
    check = validate_operating_state(t, raw)
    assert (check.has_loop, check.dark_loads, check.dg_islands, check.violations) == (
        expect.has_loop, expect.dark_loads, expect.dg_islands, expect.violations)
    fed = energized_nodes(t, plain).tolist()
    assert energized_nodes(t, raw).tolist() == fed
    assert energized_from_incidence(t.incidence(), raw, t.source_vector()).tolist() == fed
    assert frtu_coverage(t, raw) == frtu_coverage(t, plain)


def test_frtu_coverage_normal_and_reconfigured():
    t = ct8()
    normal = frtu_coverage(t, t.normal_states())
    assert normal == {"FRTU_1": {2, 3, 4}, "FRTU_2": {5, 6, 7}}
    shifted = frtu_coverage(t, states_from_string("1111001", t))
    assert shifted == {"FRTU_1": {2, 3, 4, 5}, "FRTU_2": {7}}


@st.composite
def random_network(draw):
    """Arbitrary graph with random switch states and sources.

    Reachability needs no radiality, so this generator is free to produce
    cycles, parallel feeders, and disconnected chunks.
    """
    n = draw(st.integers(min_value=1, max_value=32))
    n_edges = draw(st.integers(min_value=0, max_value=min(48, n * (n - 1) // 2)))
    pairs = set()
    for _ in range(n_edges):
        u = draw(st.integers(min_value=1, max_value=n))
        v = draw(st.integers(min_value=1, max_value=n))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    pairs = sorted(pairs)
    states = draw(
        st.lists(st.integers(0, 1), min_size=len(pairs), max_size=len(pairs)))
    sources = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return n, pairs, np.array(states, dtype=np.uint8), np.array(sources, dtype=np.uint8)


class _Stub:
    """Minimal topology stand-in for the BFS oracle."""

    class _N:
        def __init__(self, i):
            self.id = i

    class _E:
        def __init__(self, u, v):
            self.u = u
            self.v = v

    def __init__(self, n, pairs):
        self.nodes = [self._N(i) for i in range(1, n + 1)]
        self.edges = [self._E(u, v) for u, v in pairs]


def incidence_of(n, pairs):
    m = np.zeros((n, len(pairs)), dtype=np.uint8)
    for j, (u, v) in enumerate(pairs):
        m[u - 1, j] = 1
        m[v - 1, j] = 1
    return m


@given(random_network())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_bfs_oracle(net):
    n, pairs, states, sources = net
    inc = incidence_of(n, pairs)
    vf = energized_from_incidence(inc, states, sources)
    expect = bfs_reachable(_Stub(n, pairs), states, sources)
    assert vf.tolist() == expect.tolist()


@given(random_network())
@settings(max_examples=80, deadline=None)
def test_energized_set_contains_sources_and_is_fixed(net):
    n, pairs, states, sources = net
    inc = incidence_of(n, pairs)
    vf = energized_from_incidence(inc, states, sources)
    # Sources stay energized.
    assert np.all(vf >= sources)
    # Energizing again from the result changes nothing.
    vf2 = energized_from_incidence(inc, states, vf)
    assert vf2.tolist() == vf.tolist()


@given(random_network())
@settings(max_examples=80, deadline=None)
def test_energization_monotone_in_sources(net):
    n, pairs, states, sources = net
    inc = incidence_of(n, pairs)
    vf_small = energized_from_incidence(inc, states, sources)
    more = sources.copy()
    more[0] = 1
    vf_big = energized_from_incidence(inc, states, more)
    assert np.all(vf_big >= vf_small)


@given(random_network())
@settings(max_examples=80, deadline=None)
def test_energization_monotone_in_closed_edges(net):
    n, pairs, states, sources = net
    inc = incidence_of(n, pairs)
    vf_before = energized_from_incidence(inc, states, sources)
    closed = np.ones_like(states)
    vf_after = energized_from_incidence(inc, closed, sources)
    assert np.all(vf_after >= vf_before)


def test_incidence_must_be_two_dimensional():
    with pytest.raises(DimensionMismatchError):
        energized_from_incidence(
            np.ones(3, dtype=np.uint8), np.ones(3, dtype=np.uint8),
            np.ones(3, dtype=np.uint8))


def test_incidence_states_must_match_columns():
    t = ct8()
    with pytest.raises(DimensionMismatchError):
        energized_from_incidence(
            t.incidence(), np.ones(t.n_edges - 1, dtype=np.uint8), t.source_vector())


def test_incidence_sources_must_match_rows():
    t = ct8()
    with pytest.raises(DimensionMismatchError):
        energized_from_incidence(
            t.incidence(), t.normal_states(), np.ones(t.n_nodes + 1, dtype=np.uint8))


@given(st.integers(min_value=0, max_value=10_000), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_topology_path_matches_bfs_oracle(seed, mesh, rnd):
    # Two-feeder chains and 3-4 feeder meshes, under arbitrary switch
    # vectors: loops, paralleled sources and dark fragments included.
    topo = make_mesh(seed) if mesh else make_episode(seed).topology
    states = np.array([rnd.randint(0, 1) for _ in topo.edges], dtype=np.uint8)
    for sources in (topo.source_vector(), topo.dg_vector()):
        vf = energized_nodes(topo, states, sources)
        assert vf.tolist() == bfs_reachable(topo, states, sources).tolist()

    # A load is covered by an FRTU when opening only that breaker darkens it.
    base = bfs_reachable(topo, states, topo.source_vector())
    expect = {}
    for edge_id, frtu in topo.frtu_map.items():
        opened = states.copy()
        opened[edge_id - 1] = 0
        after = bfs_reachable(topo, opened, topo.source_vector())
        expect[frtu] = {
            n.id for n in topo.nodes
            if n.kind is NodeKind.LOAD and base[n.id - 1] and not after[n.id - 1]
        }
    assert frtu_coverage(topo, states) == expect
