"""Unit tests for Yannakakis' algorithm over annotated join trees."""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.query.relation import Relation
from oracles.eager import AnnotatedNode, full_reduce, semijoin_pass_count, yannakakis


def _chain_tree() -> AnnotatedNode:
    """R(a,b) - S(b,c) - T(c,d) as a path-shaped join tree."""
    t = AnnotatedNode(Relation("T", ("c", "d"), [(10, 100), (20, 200)]))
    s = AnnotatedNode(Relation("S", ("b", "c"), [(1, 10), (2, 20), (3, 30)]), [t])
    r = AnnotatedNode(Relation("R", ("a", "b"), [(7, 1), (8, 2), (9, 4)]), [s])
    return r


def test_full_reduce_removes_dangling_tuples():
    root = _chain_tree()
    full_reduce(root)
    # (9, 4) in R has no partner in S; (3, 30) in S has no partner in T.
    assert set(root.relation.tuples) == {(7, 1), (8, 2)}
    s = root.children[0]
    assert set(s.relation.tuples) == {(1, 10), (2, 20)}


def test_semijoin_pass_count():
    assert semijoin_pass_count(_chain_tree()) == 4


def test_yannakakis_full_enumeration():
    answers = yannakakis(_chain_tree(), ["a", "d"])
    assert set(answers.schema) == {"a", "d"}
    assert set(answers.tuples) == {(7, 100), (8, 200)}


def test_yannakakis_projection_subset():
    answers = yannakakis(_chain_tree(), ["a"])
    assert set(answers.tuples) == {(7,), (8,)}


def test_yannakakis_boolean():
    answers = yannakakis(_chain_tree(), [])
    assert answers.schema == ()
    assert len(answers) == 1


def test_yannakakis_boolean_unsatisfiable():
    t = AnnotatedNode(Relation("T", ("c",), []))
    r = AnnotatedNode(Relation("R", ("b", "c"), [(1, 2)]), [t])
    answers = yannakakis(r, [])
    assert len(answers) == 0


def test_yannakakis_empty_branch_empties_answers():
    root = _chain_tree()
    root.children[0].children[0].relation = Relation("T", ("c", "d"), [])
    answers = yannakakis(root, ["a"])
    assert not answers.tuples


def test_yannakakis_unknown_output_variable():
    with pytest.raises(QueryError):
        yannakakis(_chain_tree(), ["zzz"])


def test_yannakakis_duplicate_output_variables():
    answers = yannakakis(_chain_tree(), ["a", "a"])
    assert answers.schema == ("a",)


def test_single_node_tree():
    node = AnnotatedNode(Relation("R", ("x", "y"), [(1, 2)]))
    answers = yannakakis(node, ["y"])
    assert set(answers.tuples) == {(2,)}
