"""Unit tests for structural hypergraph properties."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.hypergraph import Hypergraph, generators
from repro.hypergraph.properties import (
    connected_components,
    degree,
    gyo_reduction,
    intersection_width,
    is_alpha_acyclic,
    rank,
    statistics,
)


def test_rank_and_degree(simple_hypergraph):
    assert rank(simple_hypergraph) == 3  # edge s has 3 vertices
    assert degree(simple_hypergraph) == 2  # every vertex occurs in exactly 2 edges


def test_intersection_width(simple_hypergraph):
    assert intersection_width(simple_hypergraph) == 1


def test_intersection_width_larger():
    h = Hypergraph({"a": ["x", "y", "z"], "b": ["y", "z", "w"]})
    assert intersection_width(h) == 2


def test_acyclic_families():
    assert is_alpha_acyclic(generators.path(6))
    assert is_alpha_acyclic(generators.star(4))
    assert is_alpha_acyclic(generators.chain_query(5))
    assert is_alpha_acyclic(generators.snowflake_query(3))


def test_cyclic_families():
    assert not is_alpha_acyclic(generators.cycle(3))
    assert not is_alpha_acyclic(generators.cycle(8))
    assert not is_alpha_acyclic(generators.grid(2, 3))
    assert not is_alpha_acyclic(generators.clique(4))


def test_gyo_reduction_residual_empty_for_acyclic():
    assert gyo_reduction(generators.path(4)) == [] or len(gyo_reduction(generators.path(4))) <= 1


def test_gyo_reduction_residual_nonempty_for_cycle():
    assert len(gyo_reduction(generators.cycle(5))) > 1


def test_single_edge_is_acyclic():
    assert is_alpha_acyclic(Hypergraph({"e": ["a", "b", "c"]}))


def test_two_overlapping_edges_are_acyclic():
    assert is_alpha_acyclic(Hypergraph({"e": ["a", "b"], "f": ["b", "c"]}))


def test_connected_components_single(simple_hypergraph):
    assert len(connected_components(simple_hypergraph)) == 1


def test_connected_components_multiple():
    h = Hypergraph({"a": ["x", "y"], "b": ["y", "z"], "c": ["p", "q"]})
    components = connected_components(h)
    assert len(components) == 2
    sizes = sorted(len(c) for c in components)
    assert sizes == [1, 2]


def test_statistics_bundle(simple_hypergraph):
    stats = statistics(simple_hypergraph)
    assert stats.num_edges == 3
    assert stats.num_vertices == 4
    assert stats.rank == 3
    assert stats.degree == 2
    # r, s, t form a cycle on {x, y, w} once the ear vertex z is removed.
    assert stats.alpha_acyclic is False


@given(st.integers(min_value=3, max_value=12))
def test_cycles_are_never_acyclic(length):
    assert not is_alpha_acyclic(generators.cycle(length))


@given(st.integers(min_value=1, max_value=12))
def test_paths_are_always_acyclic(length):
    assert is_alpha_acyclic(generators.path(length))
