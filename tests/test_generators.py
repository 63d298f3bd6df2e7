"""Unit tests for the hypergraph generators."""

from __future__ import annotations

import pytest

from repro.exceptions import HypergraphError
from repro.hypergraph import generators
from repro.hypergraph.properties import connected_components, is_alpha_acyclic


def test_cycle_structure():
    h = generators.cycle(6)
    assert h.num_edges == 6
    assert h.num_vertices == 6
    assert all(len(h.edge_vertices(i)) == 2 for i in range(6))
    assert len(connected_components(h)) == 1


def test_cycle_invalid_length():
    with pytest.raises(HypergraphError):
        generators.cycle(0)


def test_path_is_acyclic():
    h = generators.path(7)
    assert h.num_edges == 7
    assert is_alpha_acyclic(h)


def test_star_is_acyclic():
    h = generators.star(5, ray_arity=3)
    assert h.num_edges == 5
    assert is_alpha_acyclic(h)
    assert "c" in h.vertices


def test_star_validation():
    with pytest.raises(HypergraphError):
        generators.star(0)
    with pytest.raises(HypergraphError):
        generators.star(3, ray_arity=1)


def test_chain_query_overlap():
    h = generators.chain_query(5, arity=3, overlap=1)
    assert h.num_edges == 5
    assert is_alpha_acyclic(h)
    # Consecutive atoms share exactly `overlap` variables.
    shared = h.edge_vertices(0) & h.edge_vertices(1)
    assert len(shared) == 1


def test_chain_query_invalid_overlap():
    with pytest.raises(HypergraphError):
        generators.chain_query(3, arity=3, overlap=3)


def test_snowflake_is_acyclic():
    h = generators.snowflake_query(4, branch_length=2)
    assert is_alpha_acyclic(h)
    assert h.num_edges == 1 + 4 * 2


def test_grid_structure():
    h = generators.grid(3, 4)
    # 3 rows x 4 cols: horizontal edges 3*3, vertical 2*4.
    assert h.num_edges == 3 * 3 + 2 * 4
    assert h.num_vertices == 12
    assert not is_alpha_acyclic(h)


def test_grid_single_cell():
    h = generators.grid(1, 1)
    assert h.num_edges == 1


def test_clique_structure():
    h = generators.clique(5)
    assert h.num_edges == 10
    assert h.num_vertices == 5
    with pytest.raises(HypergraphError):
        generators.clique(1)


def test_triangle_cascade():
    h = generators.triangle_cascade(3)
    assert h.num_edges == 9
    assert not is_alpha_acyclic(h)


def test_hypercycle():
    h = generators.hypercycle(4, arity=3)
    assert h.num_edges == 4
    assert all(len(h.edge_vertices(i)) == 3 for i in range(4))
    with pytest.raises(HypergraphError):
        generators.hypercycle(2, arity=3)


def test_with_chords_adds_edges():
    base = generators.cycle(8)
    chorded = generators.with_chords(base, 3, seed=1)
    assert chorded.num_edges == base.num_edges + 3
    assert chorded.vertices == base.vertices


def test_with_chords_deterministic():
    base = generators.cycle(8)
    a = generators.with_chords(base, 3, seed=7)
    b = generators.with_chords(base, 3, seed=7)
    assert a == b


def test_random_csp_deterministic():
    a = generators.random_csp(10, 8, seed=3)
    b = generators.random_csp(10, 8, seed=3)
    assert a == b
    assert a.num_edges == 8
    assert all(len(a.edge_vertices(i)) == 3 for i in range(8))


def test_random_csp_validation():
    with pytest.raises(HypergraphError):
        generators.random_csp(2, 5, arity=3)
    with pytest.raises(HypergraphError):
        generators.random_csp(5, 0)


def test_random_query_deterministic_and_bounded():
    a = generators.random_query(15, 12, seed=9)
    b = generators.random_query(15, 12, seed=9)
    assert a == b
    assert a.num_edges == 15
    assert all(2 <= len(a.edge_vertices(i)) <= 4 for i in range(a.num_edges))


def test_random_query_validation():
    with pytest.raises(HypergraphError):
        generators.random_query(0, 10)
    with pytest.raises(HypergraphError):
        generators.random_query(3, 10, acyclic_bias=1.5)


def test_family_helper():
    graphs = generators.family("cycle", [4, 6])
    assert [g.num_edges for g in graphs] == [4, 6]
    with pytest.raises(HypergraphError):
        generators.family("unknown", [3])
