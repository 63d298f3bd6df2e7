"""Unit tests for [U]-components of extended subhypergraphs (Definition 3.2)."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.decomp.components import components, covered_items, separate
from repro.decomp.extended import BitComp, full_bitcomp
from repro.hypergraph import Hypergraph, generators
from repro.hypergraph.bitset import indices_of


def _host() -> Hypergraph:
    return Hypergraph(
        {
            "a": ["1", "2"],
            "b": ["2", "3"],
            "c": ["3", "4"],
            "d": ["4", "5"],
            "e": ["5", "6"],
            "f": ["6", "1"],
        },
        name="hexagon",
    )


def test_empty_separator_yields_one_component():
    host = _host()
    comps = components(host, full_bitcomp(host), 0)
    assert len(comps) == 1
    assert comps[0].edges == host.all_edges_mask


def test_separator_splits_cycle():
    host = _host()
    # Removing the vertices of edges a and d cuts the hexagon in two paths.
    separator = host.edge_bits(0) | host.edge_bits(3)
    comps = components(host, full_bitcomp(host), separator)
    assert len(comps) == 2
    sizes = sorted(c.size for c in comps)
    assert sizes == [2, 2]


def test_covered_edges_do_not_appear_in_components():
    host = _host()
    separator = host.vertices_to_mask(["1", "2", "3"])
    comps, covered = separate(host, full_bitcomp(host), separator)
    covered_names = {host.edge_name(i) for i in indices_of(covered.edges)}
    assert covered_names == {"a", "b"}
    for comp in comps:
        assert not (comp.edges & covered.edges)


def test_special_edges_participate_in_components():
    host = _host()
    special = host.vertices_to_mask(["3", "6"])
    comp = BitComp.of({1, 2}, (special,))  # edges b, c plus a special
    separator = host.vertices_to_mask(["3"])
    comps = components(host, comp, separator)
    # b = {2,3} has residue {2}; c = {3,4} residue {4}; special residue {6}:
    # no two items share a vertex outside the separator, so three components.
    assert len(comps) == 3
    assert sum(1 for c in comps if c.specials) == 1


def test_special_edge_covered_by_separator():
    host = _host()
    special = host.vertices_to_mask(["3", "6"])
    comp = BitComp.of((), (special,))
    comps = components(host, comp, host.vertices_to_mask(["3", "6"]))
    assert comps == []
    covered = covered_items(host, comp, host.vertices_to_mask(["3", "6"]))
    assert covered.specials == (special,)


def test_components_partition_items():
    host = generators.grid(3, 3)
    comp = full_bitcomp(host)
    separator = host.vertices_to_mask(["v1_1"])
    comps = components(host, comp, separator)
    covered = covered_items(host, comp, separator)
    all_edges = covered.edges
    for c in comps:
        assert not (all_edges & c.edges)
        all_edges |= c.edges
    assert all_edges == comp.edges


def test_components_are_connected_internally():
    host = generators.cycle(8)
    separator = host.edge_bits(0) | host.edge_bits(4)
    comps = components(host, full_bitcomp(host), separator)
    for comp in comps:
        # Within each component, every edge is reachable from every other via
        # shared vertices outside the separator.
        edges = indices_of(comp.edges)
        reached = {edges[0]}
        frontier = [edges[0]]
        while frontier:
            current = frontier.pop()
            for other in edges:
                if other in reached:
                    continue
                shared = host.edge_bits(current) & host.edge_bits(other) & ~separator
                if shared:
                    reached.add(other)
                    frontier.append(other)
        assert reached == set(edges)


def test_deterministic_order():
    host = generators.cycle(9)
    separator = host.edge_bits(2) | host.edge_bits(6)
    first = components(host, full_bitcomp(host), separator)
    second = components(host, full_bitcomp(host), separator)
    assert [c.edges for c in first] == [c.edges for c in second]


@given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=9))
def test_random_separator_partitions_cycle(length, edge_index):
    host = generators.cycle(length)
    edge_index %= length
    separator = host.edge_bits(edge_index)
    comps = components(host, full_bitcomp(host), separator)
    covered = covered_items(host, full_bitcomp(host), separator)
    total = sum(c.size for c in comps) + covered.size
    assert total == length
    # No component may contain a covered edge.
    for comp in comps:
        assert not (comp.edges & covered.edges)
