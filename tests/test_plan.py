"""Unit tests for the query-plan compiler."""

from __future__ import annotations

import pytest

from repro.bench.corpus import generate_corpus
from repro.core.width import hypertree_width
from repro.decomp.jointree import JoinTree, JoinTreeNode, join_tree_from_decomposition
from repro.exceptions import QueryError
from repro.hypergraph.cq import Atom, ConjunctiveQuery, parse_conjunctive_query
from repro.query import ColumnStore, Database, PlanExecutor, Relation, SQLStore
from repro.query.plan import AnswerMode, JoinOp, ProjectOp, compile_plan
from repro.query.sqlgen import SQLExecutor


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
    for plan in _schedule_plans():
        joins = [op for op in plan.join_schedule if isinstance(op, JoinOp)]
        reads = {op.source: op.retain for op in joins}
        reads[0] = plan.output
        for node in range(plan.num_nodes):
            into = [op for op in joins if op.target == node]
            written = list(plan.node_variables[node])
            for op in into[:-1]:  # earlier joins: the node plus what they retain
                written += [v for v in op.retain if v not in written]
                assert op.schema == tuple(written)
            if into:  # the last join writes what the node's consumer reads
                assert into[-1].schema == reads[node]
        projects = [op for op in plan.join_schedule if isinstance(op, ProjectOp)]
        if plan.children[0]:
            assert projects == []
        else:  # only a root without children projects, and only to drop columns
            dropped = set(plan.output) != set(plan.node_variables[0])
            assert projects == ([ProjectOp(0, plan.output)] if dropped else [])


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
    # A join line shows what the join writes and what it reads of the child.
    chain3 = parse_conjunctive_query(_LEDGER_QUERIES[0])
    lines = compile_plan(chain3, _join_tree(chain3), "enumerate").describe().splitlines()
    assert [line for line in lines if line.startswith("  res[")] == [
        "  res[1] = π_{b, d}(res[1] ⋈ π_{c, d}(res[2]))",
        "  res[0] = π_{a, d}(res[0] ⋈ π_{b, d}(res[1]))",
    ]


@pytest.mark.parametrize(
    "executor",
    [lambda db: PlanExecutor(ColumnStore(db)), lambda db: SQLExecutor(SQLStore(db))],
    ids=["columnar", "sql"],
)
@pytest.mark.parametrize(
    "root",
    [
        # Drops s: the tree answers r alone, (1,2) and (3,4), not [(1,2)].
        JoinTreeNode(frozenset({"x", "y"}), frozenset({"r"}), frozenset({"r"})),
        # Binds z, which its λ-label {r} does not cover.
        JoinTreeNode(frozenset({"x", "y", "z"}), frozenset({"r"}), frozenset({"r", "s"})),
    ],
    ids=["atom-dropped", "bag-not-covered"],
)
def test_hand_built_join_tree_is_checked(executor, root):
    query = parse_conjunctive_query("ans(x,y) :- r(x,y), s(y,z).")
    database = Database(
        [Relation("r", ["a0", "a1"], [(1, 2), (3, 4)]), Relation("s", ["a0", "a1"], [(2, 9)])]
    )
    with pytest.raises(QueryError):
        executor(database).execute(compile_plan(query, JoinTree(query.hypergraph(), root)))


def _tiny_corpus_queries():
    """The tiny corpus up to 20 edges, read as queries (one atom per edge)."""
    for instance in generate_corpus("tiny"):
        if instance.num_edges <= 20:
            atoms = tuple(
                Atom(name, tuple(sorted(vertices)))
                for name, vertices in sorted(instance.hypergraph.edges_as_dict().items())
            )
            yield ConjunctiveQuery(atoms, (), name=instance.name)


#: The perf ledger's five query shapes (also pinned in test_sql_executor.py).
_LEDGER_QUERIES = (
    "ans(a,d) :- r1(a,b), r2(b,c), r3(c,d).",
    "ans(a,b,c) :- r1(a,b), r2(b,c), r3(c,a).",
    "ans(x,a,b) :- r1(x,a), r2(x,b), r3(x,c).",
    "ans(a,c,e) :- r1(a,b), r2(b,c), r3(c,d), r4(d,a), r5(d,e).",
    "ans(a,b,d) :- r1(a,b), r2(b,c), r3(c,a), r4(c,d), r5(d,e), r6(e,c).",
)


def _schedule_plans():
    """Enumerate plans of the tiny corpus and of the ledger shapes."""
    queries = list(_tiny_corpus_queries()) + [parse_conjunctive_query(t) for t in _LEDGER_QUERIES]
    for query in queries:
        yield compile_plan(query, _join_tree(query), "enumerate")


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
    lines = [line for line in plan.describe().splitlines() if line.startswith("  bag[")]
    lines = [line for line in lines if " = π_" in line]
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
