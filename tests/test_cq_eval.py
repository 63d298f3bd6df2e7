"""End-to-end tests of HD-guided conjunctive query evaluation."""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.hypergraph.cq import parse_conjunctive_query
from repro.query import (
    evaluate_query,
    naive_join_query,
    random_database_for_query,
)


QUERIES = [
    # Acyclic chain query.
    "ans(x, w) :- r(x,y), s(y,z), t(z,w).",
    # Cyclic (triangle) query: width 2.
    "ans(x) :- r(x,y), s(y,z), t(z,x).",
    # Cycle of length 4 with an attached tail.
    "ans(x, p) :- r(x,y), s(y,z), t(z,w), u(w,x), v(x,p).",
    # Star query.
    "ans(c) :- a(c,x), b(c,y), d(c,z).",
]


@pytest.mark.parametrize("query_text", QUERIES)
@pytest.mark.parametrize("seed", [0, 1])
def test_hd_guided_evaluation_matches_naive_join(query_text, seed):
    query = parse_conjunctive_query(query_text)
    database = random_database_for_query(
        query, domain_size=4, tuples_per_relation=12, seed=seed
    )
    report = evaluate_query(query, database)
    naive = naive_join_query(database, query.atoms, query.free_variables)
    assert report.answers.as_dicts() == naive.as_dicts()
    assert report.width >= 1
    assert report.planned.join_tree.width <= report.width


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_boolean_query_agreement(seed):
    query = parse_conjunctive_query("r(x,y), s(y,z), t(z,x).")
    database = random_database_for_query(
        query, domain_size=3, tuples_per_relation=6, seed=seed
    )
    report = evaluate_query(query, database)
    naive = naive_join_query(database, query.atoms, [])
    assert report.planned.plan.output == ()
    assert report.boolean == (len(naive) > 0)


def test_report_contains_decomposition_details():
    query = parse_conjunctive_query("ans(x) :- r(x,y), s(y,z), t(z,x).")
    database = random_database_for_query(query, seed=3)
    report = evaluate_query(query, database)
    assert report.width == 2
    assert report.planned.decomposition.width <= 2
    assert report.planned.decomposition_seconds >= 0
    assert report.execution_seconds >= 0


def test_unreachable_width_raises():
    # A clique query of width 4 cannot be decomposed within max_width=1.
    atoms = ", ".join(
        f"e{i}{j}(x{i},x{j})" for i in range(5) for j in range(i + 1, 5)
    )
    query = parse_conjunctive_query(f"ans(x0) :- {atoms}.")
    database = random_database_for_query(query, seed=0)
    with pytest.raises(QueryError):
        evaluate_query(query, database, max_width=1)


def test_repeated_relation_atoms():
    query = parse_conjunctive_query("ans(x, z) :- r(x,y), r(y,z).")
    database = random_database_for_query(query, domain_size=4, seed=7)
    report = evaluate_query(query, database)
    naive = naive_join_query(database, query.atoms, query.free_variables)
    assert report.answers.as_dicts() == naive.as_dicts()
