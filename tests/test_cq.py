"""Unit tests for conjunctive queries, CSP instances and their abstraction."""

from __future__ import annotations

import pytest

from repro.exceptions import ParseError, QueryError
from repro.hypergraph.cq import Atom, ConjunctiveQuery, CSPInstance, parse_conjunctive_query


def test_atom_basics():
    atom = Atom("r", ("x", "y", "x"))
    assert atom.variables == {"x", "y"}
    assert str(atom) == "r(x, y, x)"


def test_atom_without_arguments_rejected():
    with pytest.raises(QueryError):
        Atom("r", ())


def test_query_variables_and_boolean():
    query = ConjunctiveQuery((Atom("r", ("x", "y")), Atom("s", ("y", "z"))))
    assert query.variables == {"x", "y", "z"}
    assert not query.free_variables


def test_query_free_variables_must_occur():
    with pytest.raises(QueryError):
        ConjunctiveQuery((Atom("r", ("x",)),), free_variables=("z",))


def test_query_needs_atoms():
    with pytest.raises(QueryError):
        ConjunctiveQuery(())


def test_query_hypergraph_structure():
    query = ConjunctiveQuery(
        (Atom("r", ("x", "y")), Atom("s", ("y", "z")), Atom("r", ("z", "w"))),
        free_variables=("x",),
    )
    h = query.hypergraph()
    assert h.num_edges == 3
    assert h.vertices == {"x", "y", "z", "w"}
    # Two atoms over relation r must map to two distinct edges.
    assert len(set(h.edge_names)) == 3


def test_edge_atom_map_matches_hypergraph():
    query = ConjunctiveQuery(
        (Atom("r", ("x", "y")), Atom("r", ("y", "z")), Atom("s", ("z", "x")))
    )
    mapping = query.edge_atom_map()
    h = query.hypergraph()
    assert set(mapping) == set(h.edge_names)
    for edge_name, atom in mapping.items():
        assert h.edge_vertices(h.edge_index(edge_name)) == atom.variables


def test_query_str():
    query = ConjunctiveQuery((Atom("r", ("x", "y")),), free_variables=("x",))
    assert "ans(x)" in str(query)
    assert "r(x, y)" in str(query)


def test_parse_query_with_head():
    query = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z).")
    assert query.free_variables == ("x", "z")
    assert len(query.atoms) == 2
    assert query.atoms[0].relation == "r"


def test_parse_boolean_query():
    query = parse_conjunctive_query("r(x,y), s(y,x)")
    assert not query.free_variables
    assert len(query.atoms) == 2


def test_parse_empty_query_raises():
    with pytest.raises(ParseError):
        parse_conjunctive_query("   ")


def test_parse_query_without_atoms_raises():
    with pytest.raises(ParseError):
        parse_conjunctive_query("ans(x) :- ")


def test_csp_instance_hypergraph():
    csp = CSPInstance(
        constraints=(
            ("c1", ("x", "y"), ((1, 2), (2, 3))),
            ("c2", ("y", "z"), ((2, 1),)),
        )
    )
    h = csp.hypergraph()
    assert h.num_edges == 2
    assert h.vertices == {"x", "y", "z"}
    assert csp.variables == {"x", "y", "z"}


def test_csp_arity_mismatch_rejected():
    with pytest.raises(QueryError):
        CSPInstance(constraints=(("c", ("x", "y"), ((1,),)),))


def test_csp_empty_scope_rejected():
    with pytest.raises(QueryError):
        CSPInstance(constraints=(("c", (), ((),)),))


def test_csp_without_constraints_has_no_hypergraph():
    with pytest.raises(QueryError):
        CSPInstance().hypergraph()
