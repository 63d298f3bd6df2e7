"""Unit tests for the in-memory relation algebra."""

from __future__ import annotations

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


def test_semijoin_without_shared_attributes_returns_a_copy(r):
    # Regression: the result used to alias self.tuples, so mutating it
    # (as e.g. an executor compacting intermediate results might) silently
    # corrupted the source relation.
    nonempty = Relation("u", ("q",), [(1,)])
    before = set(r.tuples)
    result = r.semijoin(nonempty)
    assert result.tuples is not r.tuples
    result.tuples.clear()
    assert r.tuples == before


def test_equality_is_schema_order_independent():
    a = Relation("x", ("a", "b"), [(1, 2)])
    b = Relation("y", ("b", "a"), [(2, 1)])
    assert a == b
    assert a != Relation("z", ("a", "b"), [(2, 1)])
