"""Topology construction, validation, and matrix encodings."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsleuth.errors import (
    BreakerNotAtSourceError,
    DanglingEndpointError,
    DimensionMismatchError,
    DuplicateIdError,
    InvalidIdError,
    NonRadialNormalStateError,
    SelfLoopError,
    TopologyError,
)
from gridsleuth.networks import CT8_SPEC, ct8
from gridsleuth.topology import (
    EdgeKind,
    NodeKind,
    adjacency_from_incidence,
    build_topology,
    incidence_matrix,
    load_topology,
    states_from_string,
    states_to_string,
    validate_operating_state,
)


def test_ct8_shape():
    t = ct8()
    assert t.n_nodes == 8
    assert t.n_edges == 7
    assert t.node(1).kind is NodeKind.SOURCE
    assert t.node(8).kind is NodeKind.SOURCE
    assert t.node(6).has_dg
    assert t.edge(4).kind is EdgeKind.TIE
    assert t.frtu_map == {1: "FRTU_1", 7: "FRTU_2"}


def test_builtin_ct8_is_the_scenario_file():
    # The network is written twice: networks.CT8_SPEC for code, and
    # scenarios/ct8.json for the scenario files and the CLI.
    path = Path(__file__).resolve().parent.parent / "scenarios" / "ct8.json"
    assert json.loads(path.read_text()) == CT8_SPEC


def test_normal_states_and_vectors():
    t = ct8()
    assert states_to_string(t.normal_states()) == "1110111"
    assert t.source_vector().tolist() == [1, 0, 0, 0, 0, 0, 0, 1]
    assert t.dg_vector().tolist() == [0, 0, 0, 0, 0, 1, 0, 0]


def test_cached_arrays_are_readonly():
    t = ct8()
    with pytest.raises(ValueError):
        t.incidence()[0, 0] = 9
    with pytest.raises(ValueError):
        t.normal_states()[0] = 0


def test_incidence_columns_sum_to_two():
    m = incidence_matrix(ct8())
    assert m.shape == (8, 7)
    assert m.sum(axis=0).tolist() == [2] * 7
    assert int(m.sum()) == 14


def test_adjacency_all_closed():
    t = ct8()
    adj = adjacency_from_incidence(t.incidence(), np.ones(7, dtype=np.uint8))
    assert adj.shape == (8, 8)
    assert int(adj.sum()) == 14
    assert np.array_equal(adj, adj.T)
    assert int(np.trace(adj)) == 0


def test_adjacency_masks_open_edges():
    t = ct8()
    adj = adjacency_from_incidence(t.incidence(), t.normal_states())
    # Tie edge 4 joins nodes 3 and 5; open means no adjacency there.
    assert adj[2, 4] == 0 and adj[4, 2] == 0
    assert int(adj.sum()) == 12


def test_adjacency_dimension_check():
    t = ct8()
    with pytest.raises(DimensionMismatchError):
        adjacency_from_incidence(t.incidence(), np.ones(6, dtype=np.uint8))


def test_duplicate_node_id():
    spec = {
        "nodes": [{"id": 1, "kind": "source"}, {"id": 1, "kind": "load"}],
        "edges": [],
    }
    with pytest.raises(DuplicateIdError):
        build_topology(spec)


def two_feeder_spec(frtu_1, frtu_5):
    # Source 1 feeds loads 2-3 through breaker 1, source 6 feeds 4-5
    # through breaker 5; tie 3 joins the feeders. A None FRTU is omitted.
    edges = [
        {"id": 1, "kind": "breaker", "from": 1, "to": 2, "frtu": frtu_1},
        {"id": 2, "kind": "sectionalizer", "from": 2, "to": 3},
        {"id": 3, "kind": "tie", "from": 3, "to": 4},
        {"id": 4, "kind": "sectionalizer", "from": 4, "to": 5},
        {"id": 5, "kind": "breaker", "from": 5, "to": 6, "frtu": frtu_5},
    ]
    return {
        "nodes": [{"id": i, "kind": "source" if i in (1, 6) else "load"}
                  for i in range(1, 7)],
        "edges": [{k: v for k, v in e.items() if v is not None} for e in edges],
    }


def test_breakers_sharing_an_frtu_rejected():
    # One name for two breakers would key one coverage for both feeders.
    with pytest.raises(DuplicateIdError, match="^FRTU F names both breaker edges 1 and 5$"):
        build_topology(two_feeder_spec("F", "F"))


def test_explicit_frtu_colliding_with_a_generated_one_rejected():
    with pytest.raises(DuplicateIdError,
                       match="^FRTU FRTU_5 names both breaker edges 1 and 5$"):
        build_topology(two_feeder_spec("FRTU_5", None))


@pytest.mark.parametrize("frtu", [5, "", False, {"name": "F"}])
def test_breaker_frtu_must_be_a_non_empty_string(frtu):
    with pytest.raises(ValueError, match=re.escape(
            f'edge 1 "frtu" must be a non-empty string, got {frtu!r}')):
        build_topology(two_feeder_spec(frtu, None))


@pytest.mark.parametrize("edge, kind", [(2, "sectionalizer"), (3, "tie")])
def test_frtu_only_on_a_breaker(edge, kind):
    spec = two_feeder_spec(None, None)
    spec["edges"][edge - 1]["frtu"] = "F"
    with pytest.raises(TopologyError, match=f"^edge {edge} is a {kind} and cannot carry an FRTU"):
        build_topology(spec)


def test_null_frtu_reads_as_absent():
    spec = two_feeder_spec(None, None)
    for edge in spec["edges"]:
        edge["frtu"] = None
    assert build_topology(spec).frtu_map == {1: "FRTU_1", 5: "FRTU_5"}


@pytest.mark.parametrize("value", ["false", 0, 1, None, [True]])
def test_dg_must_be_a_boolean(value):
    spec = two_feeder_spec(None, None)
    spec["nodes"][2]["dg"] = value
    with pytest.raises(ValueError,
                       match=re.escape(f'node 3 "dg" must be true or false, got {value!r}')):
        build_topology(spec)


def test_node_ids_must_be_consecutive():
    spec = {
        "nodes": [{"id": 1, "kind": "source"}, {"id": 3, "kind": "load"}],
        "edges": [],
    }
    with pytest.raises(InvalidIdError):
        build_topology(spec)


def test_self_loop_rejected():
    spec = {
        "nodes": [{"id": 1, "kind": "source"}, {"id": 2, "kind": "load"}],
        "edges": [{"id": 1, "kind": "breaker", "from": 2, "to": 2}],
    }
    with pytest.raises(SelfLoopError):
        build_topology(spec)


def test_dangling_endpoint_rejected():
    spec = {
        "nodes": [{"id": 1, "kind": "source"}, {"id": 2, "kind": "load"}],
        "edges": [{"id": 1, "kind": "breaker", "from": 1, "to": 9}],
    }
    with pytest.raises(DanglingEndpointError):
        build_topology(spec)


def test_duplicate_edge_pair_rejected():
    spec = {
        "nodes": [{"id": 1, "kind": "source"}, {"id": 2, "kind": "load"}],
        "edges": [
            {"id": 1, "kind": "breaker", "from": 1, "to": 2},
            {"id": 2, "kind": "sectionalizer", "from": 2, "to": 1},
        ],
    }
    with pytest.raises(DuplicateIdError):
        build_topology(spec)


def test_breaker_must_touch_exactly_one_source():
    spec = {
        "nodes": [
            {"id": 1, "kind": "source"},
            {"id": 2, "kind": "load"},
            {"id": 3, "kind": "load"},
        ],
        "edges": [
            {"id": 1, "kind": "breaker", "from": 1, "to": 2},
            {"id": 2, "kind": "breaker", "from": 2, "to": 3},
        ],
    }
    with pytest.raises(BreakerNotAtSourceError):
        build_topology(spec)


def test_normal_state_cycle_rejected():
    # Triangle of normally-closed edges below the feeder head.
    spec = {
        "nodes": [
            {"id": 1, "kind": "source"},
            {"id": 2, "kind": "load"},
            {"id": 3, "kind": "load"},
            {"id": 4, "kind": "load"},
        ],
        "edges": [
            {"id": 1, "kind": "breaker", "from": 1, "to": 2},
            {"id": 2, "kind": "sectionalizer", "from": 2, "to": 3},
            {"id": 3, "kind": "sectionalizer", "from": 3, "to": 4},
            {"id": 4, "kind": "sectionalizer", "from": 4, "to": 2},
        ],
    }
    with pytest.raises(NonRadialNormalStateError):
        build_topology(spec)


def test_normal_state_unfed_load_rejected():
    spec = {
        "nodes": [
            {"id": 1, "kind": "source"},
            {"id": 2, "kind": "load"},
            {"id": 3, "kind": "load"},
        ],
        "edges": [
            {"id": 1, "kind": "breaker", "from": 1, "to": 2},
        ],
    }
    with pytest.raises(NonRadialNormalStateError):
        build_topology(spec)


def test_two_sources_one_component_rejected():
    spec = {
        "nodes": [
            {"id": 1, "kind": "source"},
            {"id": 2, "kind": "load"},
            {"id": 3, "kind": "source"},
        ],
        "edges": [
            {"id": 1, "kind": "breaker", "from": 1, "to": 2},
            {"id": 2, "kind": "breaker", "from": 3, "to": 2},
        ],
    }
    with pytest.raises(NonRadialNormalStateError):
        build_topology(spec)


def test_normal_state_dg_fed_component_rejected():
    # A DG is not a substation source: in the normal state {3, 4} runs on
    # the DG alone, which validation would accept as an island, but the
    # network must feed every load from a substation.
    spec = {
        "nodes": [
            {"id": 1, "kind": "source"},
            {"id": 2, "kind": "load"},
            {"id": 3, "kind": "load", "dg": True},
            {"id": 4, "kind": "load"},
        ],
        "edges": [
            {"id": 1, "kind": "breaker", "from": 1, "to": 2},
            {"id": 2, "kind": "sectionalizer", "from": 3, "to": 4},
            {"id": 3, "kind": "tie", "from": 2, "to": 3},
        ],
    }
    with pytest.raises(NonRadialNormalStateError):
        build_topology(spec)


def test_sources_joined_by_closed_sectionalizer_rejected():
    spec = {
        "nodes": [
            {"id": 1, "kind": "source"},
            {"id": 2, "kind": "source"},
            {"id": 3, "kind": "load"},
            {"id": 4, "kind": "load"},
        ],
        "edges": [
            {"id": 1, "kind": "breaker", "from": 1, "to": 3},
            {"id": 2, "kind": "breaker", "from": 2, "to": 4},
            {"id": 3, "kind": "sectionalizer", "from": 1, "to": 2},
        ],
    }
    with pytest.raises(NonRadialNormalStateError):
        build_topology(spec)


def test_load_topology_roundtrip(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(CT8_SPEC))
    t = load_topology(path)
    assert t.n_nodes == 8 and t.n_edges == 7


def test_all_closed_counts_as_loop_between_feeders():
    # Closing the tie parallels the two feeder sources. The closed edge
    # set is still a tree over the eight nodes, but through the upstream
    # grid the two sources are one bus, so this is a loop.
    t = ct8()
    result = validate_operating_state(t, np.ones(7, dtype=np.uint8))
    assert result.has_loop
    assert not result.ok


def test_isolated_state_is_valid_with_island():
    t = ct8()
    result = validate_operating_state(t, states_from_string("1111001", t))
    assert not result.has_loop
    assert result.dg_islands == (frozenset({6}),)
    assert result.dark_loads == ()
    assert result.ok


def test_dark_load_outside_island_flagged():
    t = ct8()
    # Opening edge 5 strands node 5 alone: no source, no DG, a violation.
    result = validate_operating_state(t, states_from_string("1110011", t))
    assert result.dg_islands == ()
    assert result.dark_loads == (5,)
    assert not result.ok


def test_multinode_dg_island_is_valid():
    t = ct8()
    # Opening the feeder-2 breaker leaves {5,6,7} running on the DG at 6:
    # a microgrid, not an outage.
    result = validate_operating_state(t, states_from_string("1110110", t))
    assert result.dg_islands == (frozenset({5, 6, 7}),)
    assert result.dark_loads == ()
    assert result.ok


def test_states_from_string_rejects_junk():
    t = ct8()
    with pytest.raises(DimensionMismatchError):
        states_from_string("11x0111", t)
    with pytest.raises(DimensionMismatchError):
        states_from_string("111", t)


@st.composite
def random_tree_spec(draw):
    """Random single-feeder radial network description."""
    n = draw(st.integers(min_value=2, max_value=16))
    nodes = [{"id": 1, "kind": "source"}]
    nodes += [{"id": i, "kind": "load"} for i in range(2, n + 1)]
    edges = []
    for i in range(2, n + 1):
        parent = draw(st.integers(min_value=1, max_value=i - 1))
        kind = "breaker" if parent == 1 else "sectionalizer"
        edges.append({"id": i - 1, "kind": kind, "from": parent, "to": i})
    return {"nodes": nodes, "edges": edges}


@given(random_tree_spec())
@settings(max_examples=60, deadline=None)
def test_random_trees_build_and_validate(spec):
    t = build_topology(spec)
    m = incidence_matrix(t)
    assert m.sum(axis=0).tolist() == [2] * t.n_edges
    result = validate_operating_state(t, t.normal_states())
    assert result.ok
    adj = adjacency_from_incidence(m, t.normal_states())
    assert np.array_equal(adj, adj.T)
    assert int(np.trace(adj)) == 0
    # A tree on n nodes has n-1 closed edges and 2(n-1) adjacency entries.
    assert int(adj.sum()) == 2 * t.n_edges
