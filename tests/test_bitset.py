"""Unit tests for the bitset helpers and the incidence-mask table."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.hypergraph import Hypergraph, bitset


def test_from_indices_and_back():
    mask = bitset.from_indices([0, 2, 5])
    assert mask == 0b100101
    assert bitset.indices_of(mask) == [0, 2, 5]


def test_from_indices_empty():
    assert bitset.from_indices([]) == 0
    assert bitset.indices_of(0) == []


def test_bits_of_order():
    assert list(bitset.bits_of(0b1011)) == [0, 1, 3]


@given(st.sets(st.integers(min_value=0, max_value=200)))
def test_roundtrip_property(indices):
    mask = bitset.from_indices(indices)
    assert set(bitset.indices_of(mask)) == indices
    assert mask.bit_count() == len(indices)


@given(
    st.sets(st.integers(min_value=0, max_value=100)),
    st.sets(st.integers(min_value=0, max_value=100)),
)
def test_set_operations_match_python_sets(a, b):
    ma, mb = bitset.from_indices(a), bitset.from_indices(b)
    assert set(bitset.indices_of(ma | mb)) == a | b
    assert set(bitset.indices_of(ma & mb)) == a & b
    assert set(bitset.indices_of(ma & ~mb)) == a - b
    assert (ma & ~mb == 0) == (a <= b)
    assert (ma & mb != 0) == bool(a & b)


@given(st.integers(min_value=0, max_value=300))
def test_singleton_matches_from_indices(index):
    assert bitset.from_indices({index}) == 1 << index
    assert bitset.indices_of(1 << index) == [index]


@given(st.sets(st.integers(min_value=0, max_value=200)))
def test_bits_of_is_sorted_and_complete(indices):
    produced = list(bitset.bits_of(bitset.from_indices(indices)))
    assert produced == sorted(indices)


@given(st.sets(st.integers(min_value=0, max_value=64)))
def test_indices_of_equals_bits_of(indices):
    mask = bitset.from_indices(indices)
    assert bitset.indices_of(mask) == list(bitset.bits_of(mask))


# --------------------------------------------------------------------------- #
# the incidence-mask table (vertex id → edge-index bitmask)
# --------------------------------------------------------------------------- #
_edges_strategy = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=12), min_size=1, max_size=5),
    min_size=1,
    max_size=8,
)


@given(_edges_strategy)
def test_incidence_masks_match_frozenset_semantics(edge_sets):
    host = Hypergraph(edge_sets)
    assert not host.has_incidence_masks  # built lazily, on first use
    table = host.incidence_masks()
    assert host.has_incidence_masks
    assert len(table) == host.num_vertices
    for vertex in host.vertex_names:
        expected = {
            index
            for index in range(host.num_edges)
            if vertex in host.edge_vertices(index)
        }
        mask = table[host.vertex_id(vertex)]
        assert bitset.indices_of(mask) == sorted(expected)


@given(_edges_strategy)
def test_incidence_masks_invert_edge_bits(edge_sets):
    # Vertex v is in edge e  ⟺  e is in the incidence mask of v: the table
    # is exactly the transpose of the edge_bits relation.
    host = Hypergraph(edge_sets)
    table = host.incidence_masks()
    for index in range(host.num_edges):
        edge_mask = host.edge_bits(index)
        for vertex_id in range(host.num_vertices):
            in_edge = bool(edge_mask >> vertex_id & 1)
            in_table = bool(table[vertex_id] >> index & 1)
            assert in_edge == in_table


@given(_edges_strategy)
def test_all_edges_mask_covers_every_edge(edge_sets):
    host = Hypergraph(edge_sets)
    assert bitset.indices_of(host.all_edges_mask) == list(range(host.num_edges))
    union = 0
    for mask in host.incidence_masks():
        union |= mask
    assert union == host.all_edges_mask


@given(_edges_strategy)
def test_adjacency_masks_match_frozenset_semantics(edge_sets):
    # Edge f is in row e  ⟺  e and f share a vertex (so e is in its own row).
    host = Hypergraph(edge_sets)
    table = host.adjacency_masks()
    assert host.has_incidence_masks  # built on the way
    assert host.edge_masks == tuple(host.edge_bits(i) for i in range(host.num_edges))
    for e in range(host.num_edges):
        assert set(bitset.indices_of(table[e])) == {
            f for f in range(host.num_edges) if host.edge_vertices(e) & host.edge_vertices(f)
        }
