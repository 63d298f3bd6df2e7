"""Unit tests for the in-memory relation algebra."""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import QueryError
from repro.query.relation import Relation


@pytest.fixture
def r() -> Relation:
    return Relation("r", ("a", "b"), [(1, 2), (2, 3), (3, 4)])


@pytest.fixture
def s() -> Relation:
    return Relation("s", ("b", "c"), [(2, 10), (3, 20), (9, 30)])


def test_basics(r):
    assert len(r) == 3
    assert (1, 2) in r
    assert (9, 9) not in r
    assert "Relation" in repr(r)


def test_duplicate_attributes_rejected():
    with pytest.raises(QueryError):
        Relation("bad", ("a", "a"), [])


def test_arity_mismatch_rejected():
    with pytest.raises(QueryError):
        Relation("bad", ("a", "b"), [(1,)])


def test_duplicates_removed():
    rel = Relation("d", ("a",), [(1,), (1,), (2,)])
    assert len(rel) == 2


def test_attribute_index(r):
    assert r.attribute_index("b") == 1
    with pytest.raises(QueryError):
        r.attribute_index("zzz")


def test_projection(r):
    projected = r.project(["b"])
    assert projected.schema == ("b",)
    assert set(projected.tuples) == {(2,), (3,), (4,)}


def test_projection_reorders(r):
    projected = r.project(["b", "a"])
    assert (2, 1) in projected.tuples


def test_rename(r):
    renamed = r.rename({"a": "x"})
    assert renamed.schema == ("x", "b")
    assert len(renamed) == 3


def test_natural_join(r, s):
    joined = r.natural_join(s)
    assert set(joined.schema) == {"a", "b", "c"}
    rows = joined.as_dicts()
    assert frozenset({("a", 1), ("b", 2), ("c", 10)}) in rows
    assert frozenset({("a", 2), ("b", 3), ("c", 20)}) in rows
    assert len(rows) == 2


def test_join_without_shared_attributes_is_cross_product(r):
    t = Relation("t", ("z",), [(7,), (8,)])
    joined = r.natural_join(t)
    assert len(joined) == 6


def test_join_is_commutative_up_to_schema(r, s):
    left = r.natural_join(s).as_dicts()
    right = s.natural_join(r).as_dicts()
    assert left == right


def test_semijoin(r, s):
    reduced = r.semijoin(s)
    assert reduced.schema == r.schema
    assert set(reduced.tuples) == {(1, 2), (2, 3)}


def test_semijoin_without_shared_attributes(r):
    nonempty = Relation("u", ("q",), [(1,)])
    empty = Relation("v", ("q",), [])
    assert len(r.semijoin(nonempty)) == len(r)
    assert not r.semijoin(empty).tuples


def test_semijoin_without_shared_attributes_shares_the_immutable_tuples(r):
    # The result holds the source's tuples by reference; neither relation
    # can be changed through the other, so the sharing is harmless.
    nonempty = Relation("u", ("q",), [(1,)])
    before = set(r.tuples)
    result = r.semijoin(nonempty)
    assert result.tuples is r.tuples
    with pytest.raises(AttributeError):
        result.tuples.clear()
    with pytest.raises(AttributeError):
        result.tuples = frozenset()
    assert r.tuples == before


def test_relations_are_immutable_values(r):
    assert type(r.tuples) is frozenset
    for field in ("name", "schema", "tuples"):
        with pytest.raises(AttributeError):
            setattr(r, field, getattr(r, field))
        with pytest.raises(AttributeError):
            delattr(r, field)
    rows = frozenset({(5, 6)})
    assert Relation.from_trusted_rows("t", ("a", "b"), rows).tuples is rows
    assert type(Relation.from_trusted_rows("t", ("a", "b"), {(5, 6)}).tuples) is frozenset
    assert pickle.loads(pickle.dumps(r)) == r


def test_equality_is_schema_order_independent():
    a = Relation("x", ("a", "b"), [(1, 2)])
    b = Relation("y", ("b", "a"), [(2, 1)])
    assert a == b
    assert a != Relation("z", ("a", "b"), [(2, 1)])
