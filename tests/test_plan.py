"""Unit tests for the query-plan compiler."""

from __future__ import annotations

import pytest

from repro.bench.corpus import generate_corpus
from repro.core.width import hypertree_width
from repro.decomp.jointree import JoinTree, JoinTreeNode, join_tree_from_decomposition
from repro.exceptions import QueryError
from repro.hypergraph.cq import Atom, ConjunctiveQuery, parse_conjunctive_query
from repro.query.plan import AnswerMode, JoinOp, ProjectOp, compile_plan


def _join_tree(query):
    width, decomposition = hypertree_width(query.hypergraph())
    tree = join_tree_from_decomposition(decomposition)
    tree.validate()
    return tree


@pytest.fixture
def triangle():
    return parse_conjunctive_query("ans(x) :- r(x,y), s(y,z), t(z,x).")


def test_answer_mode_coerce():
    assert AnswerMode.coerce("boolean") is AnswerMode.BOOLEAN
    assert AnswerMode.coerce(AnswerMode.COUNT) is AnswerMode.COUNT
    with pytest.raises(QueryError):
        AnswerMode.coerce("all-of-them")


def test_plan_covers_every_node_and_edge(triangle):
    tree = _join_tree(triangle)
    plan = compile_plan(triangle, tree, "enumerate")
    assert plan.num_nodes == len(tree)
    assert len(plan.bags) == plan.num_nodes
    # Full reduction: one bottom-up and one top-down semijoin per tree edge.
    assert len(plan.bottom_up) == plan.num_nodes - 1
    assert len(plan.top_down) == plan.num_nodes - 1
    assert plan.semijoin_count == 2 * (plan.num_nodes - 1)
    # Every atom appears in exactly one bag's assigned list.
    assigned = [i for bag in plan.bags for i in bag.assigned]
    assert sorted(assigned) == list(range(len(plan.atoms)))


def test_boolean_plan_omits_top_down_and_joins(triangle):
    tree = _join_tree(triangle)
    plan = compile_plan(triangle, tree, "boolean")
    assert plan.mode is AnswerMode.BOOLEAN
    assert len(plan.bottom_up) == plan.num_nodes - 1
    assert plan.top_down == ()
    assert plan.join_schedule == ()


def test_join_schedule_retains_only_needed_variables(triangle):
    tree = _join_tree(triangle)
    plan = compile_plan(triangle, tree, "enumerate")
    keep = set(plan.output)
    for op in plan.join_schedule:
        if isinstance(op, JoinOp):
            allowed = keep | set(plan.node_variables[op.target])
            assert set(op.retain) <= allowed
    # The schedule ends by projecting the root onto the output variables.
    final = plan.join_schedule[-1]
    if isinstance(final, ProjectOp):
        assert final.node == 0
        assert final.attributes == plan.output


def test_atom_bindings_distinguish_repeated_relations():
    query = parse_conjunctive_query("ans(x,y,z) :- r(x,y), r(y,z), r(z,x).")
    tree = _join_tree(query)
    plan = compile_plan(query, tree, "enumerate")
    assert [a.relation for a in plan.atoms] == ["r", "r", "r"]
    assert sorted(a.edge for a in plan.atoms) == ["r", "r#1", "r#2"]
    assert {a.variables for a in plan.atoms} == {("x", "y"), ("y", "z"), ("z", "x")}


def test_repeated_variable_binding_is_marked():
    query = parse_conjunctive_query("ans(x) :- r(x,x), s(x,y).")
    tree = _join_tree(query)
    plan = compile_plan(query, tree, "enumerate")
    r_binding = next(a for a in plan.atoms if a.relation == "r")
    assert r_binding.has_repeats
    assert r_binding.variables == ("x",)


def test_output_variable_must_occur_in_tree(triangle):
    # A hand-built join tree that misses the output variable.
    tree = JoinTree(
        triangle.hypergraph(),
        JoinTreeNode(
            variables=frozenset({"y", "z"}),
            cover_edges=frozenset({"s"}),
        ),
    )
    with pytest.raises(QueryError):
        compile_plan(triangle, tree, "enumerate")


def test_describe_lists_the_program(triangle):
    tree = _join_tree(triangle)
    text = compile_plan(triangle, tree, "enumerate").describe()
    assert "bag[0]" in text and "⋉=" in text and "mode=enumerate" in text


def _tiny_corpus_queries():
    """The tiny corpus up to 20 edges, read as queries (one atom per edge)."""
    for instance in generate_corpus("tiny"):
        if instance.num_edges <= 20:
            atoms = tuple(
                Atom(name, tuple(sorted(vertices)))
                for name, vertices in sorted(instance.hypergraph.edges_as_dict().items())
            )
            yield ConjunctiveQuery(atoms, (), name=instance.name)


def test_bag_filters_are_the_assigned_atoms_outside_the_cover():
    filtered = 0
    for query in _tiny_corpus_queries():
        plan = compile_plan(query, _join_tree(query), "enumerate")
        for bag in plan.bags:
            assert bag.filters == tuple(i for i in bag.assigned if i not in bag.cover)
            filtered += len(bag.filters)
        # ``assigned`` keeps its meaning: every atom sits in exactly one bag.
        assigned = [i for bag in plan.bags for i in bag.assigned]
        assert sorted(assigned) == list(range(len(plan.atoms)))
    assert filtered  # some bag of the corpus does filter


def test_describe_shows_the_filters_not_the_assigned_atoms():
    query = parse_conjunctive_query(
        "ans(a,b,d) :- r1(a,b), r2(b,c), r3(c,a), r4(c,d), r5(d,e), r6(e,c)."
    )
    plan = compile_plan(query, _join_tree(query), "enumerate")
    lines = [line for line in plan.describe().splitlines() if " = π_" in line]
    assert len(lines) == len(plan.bags)
    for bag, line in zip(plan.bags, lines):
        filters = ", ".join(plan.atoms[i].edge for i in bag.filters)
        assert line.endswith(f") ⋉ {filters}" if filters else ")")


def test_numbered_is_preorder_and_consistent(triangle):
    tree = _join_tree(triangle)
    nodes, parent, children = tree.numbered()
    assert nodes[0] is tree.root
    assert parent[0] is None
    for node_id, child_ids in enumerate(children):
        for child_id in child_ids:
            assert parent[child_id] == node_id
            assert child_id > node_id  # pre-order: children come later
    post = list(tree.post_order())
    assert len(post) == len(nodes)
    assert post[-1] is tree.root
