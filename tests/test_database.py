"""Unit tests for the relation catalogue and random database generation."""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.hypergraph.cq import parse_conjunctive_query
from repro.query.database import Database, random_database_for_query
from repro.query.relation import Relation


def test_add_and_get():
    db = Database([Relation("r", ("a",), [(1,)])])
    assert "r" in db
    assert len(db) == 1
    assert db.get("r").name == "r"
    assert db.relation_names() == ["r"]
    assert len(db.get("r")) == 1


def test_duplicate_relation_rejected():
    db = Database([Relation("r", ("a",), [])])
    with pytest.raises(QueryError):
        db.add(Relation("r", ("b",), []))


def test_unknown_relation_raises():
    with pytest.raises(QueryError):
        Database().get("missing")


def test_random_database_matches_query_schema():
    query = parse_conjunctive_query("ans(x) :- r(x,y), s(y,z,w), r(z,x).")
    db = random_database_for_query(query, domain_size=3, tuples_per_relation=5, seed=1)
    assert "r" in db and "s" in db
    assert len(db.get("s").schema) == 3
    assert len(db.get("r").schema) == 2
    assert all(len(db.get(name)) <= 5 for name in db.relation_names())


def test_random_database_is_deterministic():
    query = parse_conjunctive_query("r(x,y), s(y,z).")
    a = random_database_for_query(query, seed=5)
    b = random_database_for_query(query, seed=5)
    assert a.get("r") == b.get("r")
    assert a.get("s") == b.get("s")


def test_random_database_with_domains():
    query = parse_conjunctive_query("r(x,y).")
    db = random_database_for_query(
        query, seed=0, domains={"x": ["a", "b"], "y": [1]}
    )
    for row in db.get("r"):
        assert row[0] in {"a", "b"}
        assert row[1] == 1
