"""Unit tests for the Hypergraph data structure."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import HypergraphError
from repro.hypergraph import Hypergraph


def test_construction_from_mapping(simple_hypergraph):
    assert simple_hypergraph.num_edges == 3
    assert simple_hypergraph.num_vertices == 4
    assert set(simple_hypergraph.edge_names) == {"r", "s", "t"}
    assert simple_hypergraph.vertices == {"x", "y", "z", "w"}


def test_construction_from_iterable():
    h = Hypergraph([["a", "b"], ["b", "c"]])
    assert h.edge_names == ("e0", "e1")
    assert h.edge_vertices(0) == {"a", "b"}


def test_empty_edge_rejected():
    with pytest.raises(HypergraphError):
        Hypergraph({"r": []})


def test_duplicate_edge_names_via_items():
    class DuplicatingMapping(dict):
        def items(self):
            return [("r", ["a", "b"]), ("r", ["b", "c"])]

    with pytest.raises(HypergraphError):
        Hypergraph(DuplicatingMapping())


def test_edge_lookup(simple_hypergraph):
    index = simple_hypergraph.edge_index("s")
    assert simple_hypergraph.edge_name(index) == "s"
    assert simple_hypergraph.edge_vertices(index) == {"y", "z", "w"}


def test_unknown_edge_raises(simple_hypergraph):
    with pytest.raises(HypergraphError):
        simple_hypergraph.edge_index("nope")


def test_unknown_vertex_raises(simple_hypergraph):
    with pytest.raises(HypergraphError):
        simple_hypergraph.vertex_id("nope")


def test_vertex_mask_roundtrip(simple_hypergraph):
    mask = simple_hypergraph.vertices_to_mask(["x", "z"])
    assert simple_hypergraph.mask_to_vertices(mask) == {"x", "z"}


def test_edge_bits_consistent_with_vertices(simple_hypergraph):
    for index in range(simple_hypergraph.num_edges):
        names = simple_hypergraph.mask_to_vertices(simple_hypergraph.edge_bits(index))
        assert names == simple_hypergraph.edge_vertices(index)


def test_edges_to_mask(simple_hypergraph):
    mask = simple_hypergraph.edges_to_mask([0, 1])
    expected = simple_hypergraph.edge_vertices(0) | simple_hypergraph.edge_vertices(1)
    assert simple_hypergraph.mask_to_vertices(mask) == expected


def test_all_vertices_mask(simple_hypergraph):
    assert (
        simple_hypergraph.mask_to_vertices(simple_hypergraph.all_vertices_mask)
        == simple_hypergraph.vertices
    )


def test_subhypergraph(simple_hypergraph):
    sub = simple_hypergraph.subhypergraph([0, 2])
    assert set(sub.edge_names) == {"r", "t"}
    assert sub.vertices == {"x", "y", "w"}


def test_container_protocol(simple_hypergraph):
    assert len(simple_hypergraph) == 3
    assert "r" in simple_hypergraph
    assert "missing" not in simple_hypergraph
    assert sorted(simple_hypergraph) == ["r", "s", "t"]


def test_equality_and_hash():
    a = Hypergraph({"r": ["x", "y"], "s": ["y", "z"]})
    b = Hypergraph({"s": ["z", "y"], "r": ["y", "x"]})
    assert a == b
    assert hash(a) == hash(b)
    c = Hypergraph({"r": ["x", "y"]})
    assert a != c
    assert a != "not a hypergraph"


def test_rename(simple_hypergraph):
    renamed = simple_hypergraph.rename("other")
    assert renamed.name == "other"
    assert renamed == simple_hypergraph


def test_repr_contains_counts(simple_hypergraph):
    text = repr(simple_hypergraph)
    assert "|V|=4" in text and "|E|=3" in text


_edge_strategy = st.lists(
    st.sets(st.sampled_from("abcdefgh"), min_size=1, max_size=4), min_size=1, max_size=8
)


@given(_edge_strategy)
def test_vertices_are_union_of_edges(edges):
    h = Hypergraph(edges)
    union = set()
    for e in edges:
        union |= e
    assert h.vertices == union
    assert h.num_edges == len(edges)


@given(_edge_strategy)
def test_bitmask_view_matches_name_view(edges):
    h = Hypergraph(edges)
    for index in range(h.num_edges):
        assert h.mask_to_vertices(h.edge_bits(index)) == h.edge_vertices(index)
        assert h.edge_bits(index).bit_count() == len(h.edge_vertices(index))
