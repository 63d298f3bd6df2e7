"""Differential tests pinning the columnar executor to the reference arms.

The plan-compiled columnar evaluation (all three answer modes) must agree
answer-for-answer with :func:`repro.query.joins.naive_join_query` — and the
eager Yannakakis pipeline of ``tests/oracles/eager.py`` — on random
conjunctive queries and databases, including empty relations, repeated
variables and Boolean queries.
"""

from __future__ import annotations

import sqlite3
import sys
import threading
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles.eager import evaluate_eager

from repro.core import codec
from repro.core.width import hypertree_width
from repro.decomp.jointree import JoinTree, JoinTreeNode, join_tree_from_decomposition
from repro.pipeline.engine import DecompositionEngine
from repro.query import (
    ColumnStore,
    Database,
    QueryEngine,
    Relation,
    SQLStore,
    compile_plan,
    dump_database,
    evaluate_query,
    naive_join_query,
    random_database_for_query,
)
from repro.query import columnar
from repro.query.columnar import (
    ColumnarRelation,
    ExecutionStatistics,
    PlanExecutor,
    _dedupe_columns,
    _NodeState,
)
from repro.hypergraph.cq import Atom, ConjunctiveQuery, parse_conjunctive_query
from repro.query.plan import AtomBinding
from repro.service import DecompositionService


# --------------------------------------------------------------------------- #
# strategies: random CQs with matching random databases
# --------------------------------------------------------------------------- #
_VARIABLES = [f"v{i}" for i in range(6)]


@st.composite
def _query_and_database(draw):
    num_atoms = draw(st.integers(1, 4))
    atoms = []
    for index in range(num_atoms):
        arity = draw(st.integers(1, 3))
        # Variables may repeat inside an atom (repeated-variable binding).
        arguments = tuple(
            draw(st.sampled_from(_VARIABLES)) for _ in range(arity)
        )
        atoms.append(Atom(f"rel{index}", arguments))
    variables = sorted({v for atom in atoms for v in atom.arguments})
    # Output may be empty (Boolean query) or any subset of the variables.
    free = tuple(draw(st.lists(st.sampled_from(variables), unique=True, max_size=3)))
    query = ConjunctiveQuery(tuple(atoms), free)

    database = Database()
    for atom in atoms:
        schema = [f"a{i}" for i in range(len(atom.arguments))]
        # Relations may be empty.
        rows = draw(
            st.lists(
                st.tuples(*[st.integers(0, 3) for _ in atom.arguments]), max_size=10
            )
        )
        database.add(Relation(atom.relation, schema, rows))
    return query, database


_DIFFERENTIAL = dict(
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        # ``kernels`` patches one module attribute for the whole test; every
        # example is meant to run under that same patch.
        HealthCheck.function_scoped_fixture,
    ],
)


def _assert_modes_agree_with_naive_join(case):
    query, database = case
    naive = naive_join_query(database, query.atoms, query.free_variables)
    width, decomposition = hypertree_width(query.hypergraph(), max_width=4)
    assert width is not None, "tiny random queries must decompose within width 4"
    tree = join_tree_from_decomposition(decomposition)
    tree.validate()
    store = ColumnStore(database)
    for mode in ("enumerate", "boolean", "count"):
        plan = compile_plan(query, tree, mode)
        result = PlanExecutor(store).execute(plan)
        assert result.boolean == (len(naive) > 0), mode
        if mode == "enumerate":
            assert result.answers.as_dicts() == naive.as_dicts()
            assert result.count == len(naive)
            decoded = len(result.answers.tuples)
        elif mode == "count":
            assert result.count == len(naive)
            # ``count`` is the root table's row count, never decoded: the set
            # the enumerate run decoded has exactly that many elements (the
            # dictionary is a bijection, joins of distinct inputs stay so).
            assert decoded == result.count


@given(_query_and_database())
@settings(max_examples=40, **_DIFFERENTIAL)
def test_columnar_modes_agree_with_naive_join(case):
    _assert_modes_agree_with_naive_join(case)


@given(_query_and_database())
@settings(max_examples=40, **_DIFFERENTIAL)
def test_columnar_modes_agree_with_naive_join_on_each_kernel_arm(kernels, case):
    _assert_modes_agree_with_naive_join(case)


@given(_query_and_database())
@settings(max_examples=25, **_DIFFERENTIAL)
def test_columnar_and_eager_evaluate_query_agree(case):
    # Three ways to one answer: the facade on its shared engine, an engine of
    # the caller's own, and the oracle that never sees a compiled plan.
    query, database = case
    eager = evaluate_eager(query, database)
    engine = QueryEngine(engine=DecompositionEngine())
    for mode in ("enumerate", "boolean", "count"):
        facade = evaluate_query(query, database, mode=mode, executor="columnar")
        direct = engine.execute(query, database, mode, executor="columnar")
        assert (facade.answers, facade.count, facade.boolean, facade.width) == (
            direct.answers, direct.count, direct.boolean, direct.width
        ), mode
        assert facade.boolean == (len(eager) > 0), mode
        if mode == "enumerate":
            assert facade.answers.as_dicts() == eager.as_dicts()
        if mode != "boolean":
            assert facade.count == len(eager), mode


# --------------------------------------------------------------------------- #
# directed edge cases
# --------------------------------------------------------------------------- #
def _require_numpy_arm():
    if columnar._np is None:
        pytest.skip("numpy is not importable: there is one kernel arm")


def _run_all_modes(query, database):
    naive = naive_join_query(database, query.atoms, query.free_variables)
    results = {}
    for mode in ("enumerate", "boolean", "count"):
        report = evaluate_query(query, database, mode=mode)
        results[mode] = report
        assert report.boolean == (len(naive) > 0), mode
    assert results["enumerate"].answers.as_dicts() == naive.as_dicts()
    assert results["count"].count == len(naive)
    return results


def test_empty_relation_early_exit():
    query = ConjunctiveQuery(
        (Atom("r", ("x", "y")), Atom("s", ("y", "z"))), ("x",)
    )
    database = Database(
        [Relation("r", ["a0", "a1"], []), Relation("s", ["a0", "a1"], [(1, 2)])]
    )
    results = _run_all_modes(query, database)
    assert len(results["enumerate"].answers) == 0


def test_repeated_variables_inside_atoms():
    query = ConjunctiveQuery(
        (Atom("r", ("x", "x", "y")), Atom("s", ("y", "y"))), ("x", "y")
    )
    database = Database(
        [
            Relation("r", ["a0", "a1", "a2"], [(1, 1, 2), (1, 2, 2), (3, 3, 3)]),
            Relation("s", ["a0", "a1"], [(2, 2), (3, 1), (3, 3)]),
        ]
    )
    results = _run_all_modes(query, database)
    assert results["enumerate"].answers.as_dicts() == {
        frozenset({("x", 1), ("y", 2)}),
        frozenset({("x", 3), ("y", 3)}),
    }


def test_boolean_query_positive_and_negative():
    query = ConjunctiveQuery((Atom("r", ("x", "y")), Atom("s", ("y", "x"))), ())
    positive = Database(
        [Relation("r", ["a0", "a1"], [(1, 2)]), Relation("s", ["a0", "a1"], [(2, 1)])]
    )
    negative = Database(
        [Relation("r", ["a0", "a1"], [(1, 2)]), Relation("s", ["a0", "a1"], [(1, 2)])]
    )
    assert _run_all_modes(query, positive)["boolean"].boolean is True
    assert _run_all_modes(query, negative)["boolean"].boolean is False


def test_boolean_mode_skips_join_work():
    query = ConjunctiveQuery(
        (Atom("r", ("x", "y")), Atom("s", ("y", "z")), Atom("t", ("z", "x"))), ()
    )
    database = Database(
        [
            Relation("r", ["a0", "a1"], [(i, i + 1) for i in range(5)]),
            Relation("s", ["a0", "a1"], [(i, i + 1) for i in range(5)]),
            Relation("t", ["a0", "a1"], []),
        ]
    )
    report = evaluate_query(query, database, mode="boolean")
    assert report.boolean is False and report.answers is None
    assert report.planned.plan.top_down == ()


# --------------------------------------------------------------------------- #
# columnar substrate units
# --------------------------------------------------------------------------- #
def test_zero_ary_relation_round_trip():
    nonempty = ColumnarRelation.from_rows((), {()})
    empty = ColumnarRelation.from_rows((), set())
    assert nonempty.nrows == 1 and list(nonempty.rows()) == [()]
    assert empty.nrows == 0 and list(empty.rows()) == []


def test_execution_statistics_as_dict_lists_every_counter():
    # The ledger reads these keys; a new counter must show up here (and so in
    # ``as_dict``) rather than silently miss the reports.
    assert list(ExecutionStatistics().as_dict()) == [
        "indexes_built",
        "indexes_reused",
        "semijoins_run",
        "semijoins_skipped",
        "joins_run",
        "rows_materialised",
        "bags_built",
        "bags_reused",
        "early_exit",
    ]


def test_index_forms_count_as_one_logical_index():
    table = ColumnarRelation.from_rows(("a", "b"), {(1, 2), (1, 3), (2, 3)})
    forms = [table.key_masks, table.index_on]
    if columnar._np is not None:
        forms.append(table.sorted_index)
        index = table.sorted_index(("a",))
        assert index.keys.tolist() == [1, 2] and index.counts.tolist() == [2, 1]
    stats = ExecutionStatistics()
    for form in forms:
        form(("a",), stats)
    # The first counted request is the build; deriving or fetching another
    # form of the same (table, key) index is a reuse.
    assert stats.indexes_built == 1 and stats.indexes_reused == len(forms) - 1


def test_index_cache_counts_reuse():
    table = ColumnarRelation.from_rows(("a", "b"), {(1, 2), (1, 3), (2, 3)})
    stats = ExecutionStatistics()
    first = table.index_on(("a",), stats)
    second = table.index_on(("a",), stats)
    assert first is second
    assert stats.indexes_built == 1 and stats.indexes_reused == 1
    assert sorted(first) == [1, 2] and sorted(first[1]) == sorted(
        [i for i, key in enumerate(table.column("a")) if key == 1]
    )


def test_atom_tables_are_schema_specific_but_share_columns():
    # Regression: r(x,y) and r(y,z) must not share one schema-bound table.
    database = Database([Relation("r", ["a0", "a1"], [(1, 2), (2, 3)])])
    store = ColumnStore(database)
    from repro.query.plan import AtomBinding

    t_xy = store.atom_table(AtomBinding("r", "r", ("x", "y"), ("x", "y")))
    t_yz = store.atom_table(AtomBinding("r#1", "r", ("y", "z"), ("y", "z")))
    assert t_xy.schema == ("x", "y") and t_yz.schema == ("y", "z")
    assert t_xy.columns is t_yz.columns  # encoded data is shared
    assert t_xy is store.atom_table(AtomBinding("r", "r", ("x", "y"), ("x", "y")))


def _assert_executor_reuses_indexes_across_passes() -> dict:
    # On a chain query the child/parent shared variables are identical in the
    # bottom-up pass, the top-down pass and the final join, so the executor
    # must reuse cached hash indexes instead of rebuilding them.
    query = ConjunctiveQuery(
        (Atom("r", ("x", "y")), Atom("s", ("y", "z")), Atom("t", ("z", "w"))),
        ("x", "w"),
    )
    rows = [(i, (i * 7) % 10) for i in range(10)]
    database = Database(
        [
            Relation("r", ["a0", "a1"], rows),
            Relation("s", ["a0", "a1"], rows),
            Relation("t", ["a0", "a1"], rows),
        ]
    )
    report = evaluate_query(query, database, mode="enumerate")
    naive = naive_join_query(database, query.atoms, query.free_variables)
    assert report.answers.as_dicts() == naive.as_dicts()
    width, decomposition = hypertree_width(query.hypergraph())
    tree = join_tree_from_decomposition(decomposition)
    plan = compile_plan(query, tree, "enumerate")
    result = PlanExecutor(ColumnStore(database)).execute(plan)
    assert result.statistics.indexes_reused >= 1
    return result.statistics.as_dict()


def test_executor_reuses_indexes_across_passes():
    _assert_executor_reuses_indexes_across_passes()


def test_operator_counts_do_not_depend_on_the_kernel_arm(monkeypatch):
    # The sorted key index is counted where the hash index was, so the ledger's
    # operator counts compare across arms (and across this PR's boundary).
    _require_numpy_arm()
    with_numpy = _assert_executor_reuses_indexes_across_passes()
    monkeypatch.setattr(columnar, "_np", None)
    assert _assert_executor_reuses_indexes_across_passes() == with_numpy


def test_key_column_cached_per_attributes():
    table = ColumnarRelation.from_rows(("a", "b"), {(1, 2), (3, 4), (5, 6)})
    wide = table.key_column(("a", "b"))
    assert table.key_column(("a", "b")) is wide  # zipped once, then cached
    # Single-attribute keys are the stored column itself — identity-stable.
    assert table.key_column(("a",)) is table.column("a")
    assert sorted(wide) == [(1, 2), (3, 4), (5, 6)]


def test_live_keys_cache_invalidated_by_alive_changes():
    table = ColumnarRelation.from_rows(("a", "b"), {(1, 2), (3, 4), (5, 6)})
    state = _NodeState(table)
    first = state.live_keys(("a",))
    assert first == {1, 3, 5}
    assert state.live_keys(("a",)) is first  # cached while the mask stands

    dead = table.key_masks(("a",))[3]
    state.kill(dead)
    assert state.live_count == 2
    second = state.live_keys(("a",))
    assert second == {1, 5}  # the kill invalidated the cached snapshot
    assert state.live_keys(("a",)) is second

    # Killing rows that are already dead must not invalidate the cache.
    state.kill(dead)
    assert state.live_keys(("a",)) is second


def _atom_rows(relation, binding):
    """The row-at-a-time definition of an atom's table: the rows that agree
    on every repeated variable, projected onto the distinct variables."""
    arguments = binding.arguments
    return {
        tuple(row[arguments.index(v)] for v in binding.variables)
        for row in relation.tuples
        if all(row[i] == row[arguments.index(a)] for i, a in enumerate(arguments))
    }


def _decoded(store, table):
    return list(zip(*(map(store.decode, column) for column in table.columns)))


def test_atom_table_matches_the_row_at_a_time_definition(kernels):
    database = Database(
        [
            Relation(
                "r",
                ["a0", "a1", "a2"],
                [(1, 1, "x"), (1, 2, "x"), ("s", "s", None), (None, None, None),
                 (None, 1, 2), (2, 2, 2), ("s", "t", "s")],
            ),
            Relation("e", ["a0", "a1"], []),
        ]
    )
    store = ColumnStore(database)
    bindings = [
        AtomBinding("r", "r", ("x", "x", "y"), ("x", "y")),
        AtomBinding("r#1", "r", ("x", "y", "z"), ("x", "y", "z")),
        AtomBinding("r#2", "r", ("u", "u", "u"), ("u",)),
        AtomBinding("r#3", "r", ("p", "q", "p"), ("p", "q")),
        AtomBinding("r#4", "r", ("u", "v", "w"), ("u", "v", "w")),
        AtomBinding("e", "e", ("x", "x"), ("x",)),
        AtomBinding("e#1", "e", ("x", "y"), ("x", "y")),
    ]
    for binding in bindings:
        table = store.atom_table(binding)
        rows = _decoded(store, table)
        assert table.schema == binding.variables
        assert len(rows) == table.nrows == len(set(rows))  # distinct, no dedupe
        assert set(rows) == _atom_rows(database.get(binding.relation), binding)
    # r(x,y,z) and r(u,v,w) share one repeat pattern, hence one set of columns.
    assert store.atom_table(bindings[4]).columns is store.atom_table(bindings[1]).columns
    assert store.atom_table(bindings[4]).schema == ("u", "v", "w")
    # One code per value, and every code decodes to its value.
    assert len(store._values) == len(store._codes)
    assert all(store._codes[value] == code for code, value in enumerate(store._values))


@dataclass(frozen=True)
class _Value:
    """A value whose hash and equality run Python code, so a thread can be
    switched out between probing the dictionary and growing it."""

    n: int


def test_concurrent_interning_mints_one_code_per_value():
    # Eight threads intern overlapping fresh columns into one store at once.
    relations = [
        Relation(
            f"r{t}",
            ["a0", "a1"],
            [(_Value((7 * t + i) % 450), (13 * t + i) % 250) for i in range(600)],
        )
        for t in range(8)
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            store = ColumnStore(Database(relations))
            barrier = threading.Barrier(len(relations))
            tables = {}

            def intern(relation):
                barrier.wait(timeout=30)
                binding = AtomBinding(relation.name, relation.name, ("x", "y"), ("x", "y"))
                tables[relation.name] = store.atom_table(binding)

            threads = [threading.Thread(target=intern, args=(r,)) for r in relations]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            for relation in relations:
                assert set(_decoded(store, tables[relation.name])) == relation.tuples
            distinct = {value for relation in relations for row in relation.tuples for value in row}
            assert len(store._values) == len(store._codes) == len(distinct)
            assert all(store._codes[value] == code for code, value in enumerate(store._values))
    finally:
        sys.setswitchinterval(switch)


def test_bags_differing_only_in_an_assigned_cover_atom_share_one_table():
    # Both trees give the root bag cover (r, s) over (x, y, z) and no filter;
    # in the second, s is assigned to a child instead.  The bag cache keys on
    # what runs (cover, variables, filters), so the second plan reuses it.
    query = parse_conjunctive_query("ans(x, z) :- r(x, y), s(y, z).")
    everything = frozenset({"x", "y", "z"})
    alone = JoinTree(
        query.hypergraph(),
        JoinTreeNode(everything, frozenset({"r", "s"}), frozenset({"r", "s"})),
    )
    split = JoinTree(
        query.hypergraph(),
        JoinTreeNode(
            everything,
            frozenset({"r", "s"}),
            frozenset({"r"}),
            [JoinTreeNode(frozenset({"y", "z"}), frozenset({"s"}), frozenset({"s"}))],
        ),
    )
    first, second = (compile_plan(query, tree, "enumerate") for tree in (alone, split))
    assert first.bags[0].assigned != second.bags[0].assigned
    assert first.bags[0].filters == second.bags[0].filters == ()
    database = random_database_for_query(query, domain_size=4, tuples_per_relation=10, seed=2)
    store = ColumnStore(database)
    executor = PlanExecutor(store)
    one = executor.execute(first)
    two = executor.execute(second)
    assert (one.statistics.bags_built, one.statistics.bags_reused) == (1, 0)
    assert (two.statistics.bags_built, two.statistics.bags_reused) == (1, 1)
    assert one.answers == two.answers


def test_bowtie_filter_leaves_the_same_rows_on_both_arms(kernels):
    # The ledger's bowtie assigns r3 to a bag that does not cover it: the one
    # filter that can reject a row.  Its bag is the cover join, projected,
    # minus the rows with no r3 partner — on either kernel arm.
    query = parse_conjunctive_query(
        "ans(a,b,d) :- r1(a,b), r2(b,c), r3(c,a), r4(c,d), r5(d,e), r6(e,c)."
    )
    planned, _ = QueryEngine(engine=DecompositionEngine()).plan(query, "enumerate")
    plan = planned.plan
    (bag,) = [bag for bag in plan.bags if bag.filters]
    assert [plan.atoms[i].relation for i in bag.filters] == ["r3"]
    database = random_database_for_query(query, domain_size=4, tuples_per_relation=12, seed=5)
    store = ColumnStore(database)
    table = PlanExecutor(store)._build_bag(plan, bag, ExecutionStatistics())
    atoms = query.edge_atom_map()
    cover = [atoms[plan.atoms[i].edge] for i in bag.cover]
    unfiltered = naive_join_query(database, cover, bag.variables)
    expected = naive_join_query(
        database, cover + [atoms[plan.atoms[i].edge] for i in bag.filters], bag.variables
    )
    assert len(expected) < len(unfiltered)  # the filter rejects rows here
    rows = _decoded(store, table)
    assert table.schema == bag.variables
    assert len(rows) == table.nrows and set(rows) == expected.tuples


def test_store_database_mismatch_rejected():
    # A column store is bound to one database: the engine keeps one per
    # database, and a SQL store refuses another database's dictionary.
    db1 = Database([Relation("r", ["a0", "a1"], [(1, 2)])])
    db2 = Database([Relation("r", ["a0", "a1"], [(1, 2)])])
    engine = QueryEngine()
    assert engine.store_for(db1).database is db1
    assert engine.store_for(db2).database is db2
    from repro.exceptions import QueryError

    with pytest.raises(QueryError):
        SQLStore(db1, ColumnStore(db2))


# --------------------------------------------------------------------------- #
# recycled executions: a repeated plan on one store runs no operator
# --------------------------------------------------------------------------- #
_MODES = ("enumerate", "boolean", "count")
_CHAIN = parse_conjunctive_query("ans(x, w) :- r(x,y), s(y,z), t(z,w).")


def _work(statistics) -> tuple[int, ...]:
    return (
        statistics.bags_built,
        statistics.indexes_built,
        statistics.semijoins_run,
        statistics.joins_run,
    )


def _outcome(result) -> tuple:
    answers = None if result.answers is None else result.answers.tuples
    return result.boolean, result.count, answers


def test_a_warm_repeat_runs_no_operator(kernels):
    engine = QueryEngine(engine=DecompositionEngine())
    database = random_database_for_query(_CHAIN, domain_size=5, tuples_per_relation=15, seed=3)
    for mode in _MODES:
        first = engine.execute(_CHAIN, database, mode)
        assert not first.execution.statistics.early_exit
        assert first.execution.statistics.semijoins_run > 0
        again = engine.execute(_CHAIN, database, mode)
        statistics = again.execution.statistics
        assert _work(statistics) == (0, 0, 0, 0)
        assert statistics.bags_reused == len(again.planned.plan.bags)
        assert (statistics.rows_materialised, statistics.indexes_reused) == (0, 0)
        assert not statistics.early_exit
        assert _outcome(again) == _outcome(first)


def test_recycled_answers_equal_those_of_a_fresh_store(kernels):
    engine = QueryEngine(engine=DecompositionEngine())
    query = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z), t(z,x), u(x).")
    database = random_database_for_query(query, domain_size=4, tuples_per_relation=12, seed=8)
    for mode in _MODES + _MODES:
        recycled = engine.execute(query, database, mode)
        fresh = PlanExecutor(ColumnStore(database)).execute(recycled.planned.plan)
        assert _outcome(recycled.execution) == _outcome(fresh)
    naive = naive_join_query(database, query.atoms, query.free_variables)
    assert recycled.count == len(naive)


def test_recycled_empty_plan_is_an_immediate_early_exit():
    query = parse_conjunctive_query("ans(x) :- r(x,y), s(y,z).")
    database = Database([Relation("r", ["a0", "a1"], [(1, 2)]), Relation("s", ["a0", "a1"], [])])
    engine = QueryEngine(engine=DecompositionEngine())
    for mode in _MODES:
        engine.execute(query, database, mode)
        again = engine.execute(query, database, mode)
        statistics = again.execution.statistics
        assert statistics.early_exit and not again.boolean
        assert _work(statistics) == (0, 0, 0, 0)
        assert statistics.bags_reused == len(again.planned.plan.bags)
        assert again.count in (None, 0)
        assert again.answers is None or len(again.answers) == 0


def test_two_databases_never_share_an_outcome():
    # Equal plans, equal or different content: one store per database, so
    # the second database always runs its own program.
    def chain(last):
        rows = {"r": [(1, 2), (6, 2)], "s": [(2, 3)], "t": [(3, last)]}
        return Database([Relation(name, ["a0", "a1"], rows[name]) for name in rows])

    engine = QueryEngine(engine=DecompositionEngine())
    one, other, twin = chain(4), chain(5), chain(4)
    assert engine.execute(_CHAIN, one).answers.tuples == {(1, 4), (6, 4)}
    for database, last in ((other, 5), (twin, 4)):
        result = engine.execute(_CHAIN, database)
        assert result.plan_cached
        assert result.execution.statistics.joins_run > 0
        assert result.answers.tuples == {(1, last), (6, last)}
    assert engine.execute(_CHAIN, one).answers.tuples == {(1, 4), (6, 4)}


def test_both_executors_see_a_commit_to_the_file(tmp_path):
    # Another connection inserts into a relation both arms have already
    # read: each drops what it cached from the file and answers anew.
    query = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z).")
    database = Database(
        [
            Relation("r", ["a0", "a1"], [(1, 2), (2, 3), (3, 4)]),
            Relation("s", ["a0", "a1"], [(2, 5)]),
        ]
    )
    path = tmp_path / "facts.sqlite"
    on_disk = dump_database(database, path)
    engine = QueryEngine(engine=DecompositionEngine())
    for executor in ("sql", "columnar"):
        for mode in _MODES:
            assert engine.execute(query, on_disk, mode, executor=executor).count in (None, 1)
    with sqlite3.connect(path) as writer:
        writer.execute("INSERT INTO s VALUES (3, 7)")
    writer.close()
    for mode in _MODES:
        sql, col = (
            engine.execute(query, on_disk, mode, executor=executor).execution
            for executor in ("sql", "columnar")
        )
        assert _outcome(col) == _outcome(sql)
        assert sql.count in (None, 2)
    assert engine.execute(query, on_disk).answers.tuples == {(1, 5), (2, 7)}


# --------------------------------------------------------------------------- #
# answers are immutable values: a recycled ENUMERATE shares one answer object
# --------------------------------------------------------------------------- #
def _assert_immutable(answers) -> None:
    assert type(answers.tuples) is frozenset
    with pytest.raises(AttributeError):
        answers.tuples.add((0, 0))
    with pytest.raises(AttributeError):
        answers.tuples = frozenset()


def test_enumerate_hits_share_one_immutable_answer(kernels):
    engine = QueryEngine(engine=DecompositionEngine())
    database = random_database_for_query(_CHAIN, domain_size=5, tuples_per_relation=15, seed=3)
    first = engine.execute(_CHAIN, database).answers
    expected = set(first.tuples)
    again, third = (engine.execute(_CHAIN, database).answers for _ in range(2))
    assert again is third is first
    _assert_immutable(again)
    assert engine.execute(_CHAIN, database).answers.tuples == expected


def test_every_answer_producer_hands_over_a_frozenset(tmp_path):
    database = random_database_for_query(_CHAIN, domain_size=5, tuples_per_relation=15, seed=3)
    on_disk = dump_database(database, tmp_path / "facts.sqlite")
    engine = QueryEngine(engine=DecompositionEngine())
    boolean_query = parse_conjunctive_query("ans() :- r(x,y), s(y,z).")
    for source in (database, on_disk):
        for executor in ("columnar", "sql"):
            for query in (_CHAIN, boolean_query):
                _assert_immutable(engine.execute(query, source, executor=executor).answers)
    empty = Database([Relation("r", ["a0", "a1"], [(1, 2)]), Relation("s", ["a0", "a1"], [])])
    for executor in ("columnar", "sql"):
        _assert_immutable(engine.execute(boolean_query, empty, executor=executor).answers)
    assert type(on_disk.get("r").tuples) is frozenset
    decoded = codec.database_from_dict(codec.database_to_dict(database))
    assert type(decoded.get("r").tuples) is frozenset


def test_service_tickets_of_one_enumerate_query_share_an_immutable_answer():
    database = random_database_for_query(_CHAIN, domain_size=5, tuples_per_relation=15, seed=3)
    naive = naive_join_query(database, _CHAIN.atoms, _CHAIN.free_variables)
    with DecompositionService(workers=2, engine=DecompositionEngine()) as service:
        first = service.submit_query(_CHAIN, database, "enumerate").result(timeout=60)
        second = service.submit_query(_CHAIN, database, "enumerate").result(timeout=60)
    assert first.answers is second.answers
    for result in (first, second):
        _assert_immutable(result.answers)
    assert first.answers == naive


# --------------------------------------------------------------------------- #
# a commit while a run reads the file never leaves a recycled wrong answer
# --------------------------------------------------------------------------- #
_RACE = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z).")
_RACE_AFTER = {(1, 5), (2, 7)}


def _race_file(tmp_path):
    database = Database(
        [
            Relation("r", ["a0", "a1"], [(1, 2), (2, 3)]),
            Relation("s", ["a0", "a1"], [(2, 5)]),
        ]
    )
    path = tmp_path / "race.sqlite"
    return dump_database(database, path), path


def _commit(path) -> None:
    with sqlite3.connect(path) as writer:
        writer.execute("INSERT INTO s VALUES (3, 7)")
    writer.close()


def _assert_no_stale_outcome(engine, on_disk) -> None:
    sql = engine.execute(_RACE, on_disk, executor="sql").answers.tuples
    assert engine.execute(_RACE, on_disk).answers.tuples == sql == _RACE_AFTER


def test_a_commit_during_a_run_leaves_no_stale_outcome(tmp_path, monkeypatch):
    # A reads the old rows; before A stores its outcome, another connection
    # commits and B runs and stores the new answer on the same engine.
    on_disk, path = _race_file(tmp_path)
    engine = QueryEngine(engine=DecompositionEngine())
    run, interleaved = PlanExecutor._run, []

    def run_then_interleave(self, plan, stats):
        outcome = run(self, plan, stats)
        if not interleaved:
            interleaved.append(plan)
            _commit(path)
            assert engine.execute(_RACE, on_disk).answers.tuples == _RACE_AFTER
        return outcome

    monkeypatch.setattr(PlanExecutor, "_run", run_then_interleave)
    answers = engine.execute(_RACE, on_disk).answers.tuples
    assert interleaved
    _assert_no_stale_outcome(engine, on_disk)
    # A's version moved during its run: it stored nothing and ran again.
    assert answers == _RACE_AFTER


def test_a_commit_between_two_threads_runs_leaves_no_stale_outcome(tmp_path, monkeypatch):
    # The same schedule on two threads: A waits after its run until B has
    # committed, run and stored.
    on_disk, path = _race_file(tmp_path)
    engine = QueryEngine(engine=DecompositionEngine())
    barrier = threading.Barrier(2, timeout=30)
    run, held = PlanExecutor._run, []

    def run_then_wait(self, plan, stats):
        outcome = run(self, plan, stats)
        if threading.current_thread().name == "A" and not held:
            held.append(plan)
            barrier.wait()  # A has read the old rows
            barrier.wait()  # B has committed, run and stored
        return outcome

    monkeypatch.setattr(PlanExecutor, "_run", run_then_wait)
    answers = {}

    def execute():
        answers[threading.current_thread().name] = engine.execute(_RACE, on_disk).answers.tuples

    a = threading.Thread(target=execute, name="A")
    a.start()
    barrier.wait()
    _commit(path)
    b = threading.Thread(target=execute, name="B")
    b.start()
    b.join(timeout=30)
    barrier.wait()
    a.join(timeout=30)
    assert not a.is_alive() and not b.is_alive()
    _assert_no_stale_outcome(engine, on_disk)
    assert answers == {"A": _RACE_AFTER, "B": _RACE_AFTER}


def test_readers_racing_a_writer_see_only_whole_versions(tmp_path):
    # Commit k moves r to (0, k) and s to (k, k) in one transaction, so
    # every state of the file answers {(0, k)}; a run that read r and s at
    # two versions would answer {}.  More reader threads than cores, with a
    # short switch interval, against one engine and one store.
    commits, readers = 15, 4
    database = Database(
        [Relation("r", ["a0", "a1"], [(0, 0)]), Relation("s", ["a0", "a1"], [(0, 0)])]
    )
    path = tmp_path / "versions.sqlite"
    on_disk = dump_database(database, path)
    engine = QueryEngine(engine=DecompositionEngine())
    engine.execute(_RACE, on_disk)
    done = threading.Event()
    seen: list[frozenset] = []

    def read():
        while not done.is_set():
            seen.append(engine.execute(_RACE, on_disk).answers.tuples)

    def write():
        with sqlite3.connect(path, timeout=30) as writer:
            for k in range(1, commits + 1):
                writer.execute("UPDATE r SET a1 = ?", (k,))
                writer.execute("UPDATE s SET a0 = ?, a1 = ?", (k, k))
                writer.commit()
        writer.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read) for _ in range(readers)]
        for thread in threads:
            thread.start()
        write()
        done.set()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    states = {frozenset({(0, k)}) for k in range(commits + 1)}
    assert seen and set(seen) <= states
    assert engine.execute(_RACE, on_disk).answers.tuples == {(0, commits)}
    assert engine.execute(_RACE, on_disk, executor="sql").answers.tuples == {(0, commits)}


# --------------------------------------------------------------------------- #
# the two kernel arms against each other (and against a nested-loop oracle)
# --------------------------------------------------------------------------- #
def _on_both_arms(run):
    """``run()`` under numpy, then with the pure-Python kernels forced."""
    _require_numpy_arm()
    packed = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "_np", None)
        pure = run()
    return packed, pure


def _executor() -> PlanExecutor:
    return PlanExecutor(ColumnStore(Database()))


# Duplicate-heavy small codes, plus codes above (and, where a case draws only
# those, disjoint from) everything the other side can hold.
_LEFT_CODES = st.sampled_from([0, 1, 2, 3, 50, 1000])
_RIGHT_CODES = st.sampled_from([0, 1, 2, 3, 7])


def _distinct_rows(codes, width):
    # 0-row and 1-row tables included; sorted so both arms see one row order.
    return st.lists(st.tuples(*[codes] * width), max_size=14).map(
        lambda rows: sorted(set(rows))
    )


_KERNEL_CASE = dict(max_examples=120, deadline=None)


@given(
    _distinct_rows(_LEFT_CODES, 3),
    _distinct_rows(_RIGHT_CODES, 3),
    # two shared attributes, one, none (the cartesian branch)
    st.sampled_from([("b", "c", "d"), ("c", "x", "d"), ("x", "y", "d")]),
)
@settings(**_KERNEL_CASE)
def test_join_kernel_arms_return_identical_columns_in_identical_order(
    left_rows, right_rows, right_schema
):
    left_schema = ("a", "b", "c")

    def run():
        left = ColumnarRelation.from_rows(left_schema, left_rows)
        right = ColumnarRelation.from_rows(right_schema, right_rows)
        stats = ExecutionStatistics()
        joined = _executor()._join(left, right, stats)
        assert joined.nrows == (len(joined.columns[0]) if joined.columns else 0)
        return joined.schema, list(joined.rows()), stats.as_dict()

    packed, pure = _on_both_arms(run)
    assert packed == pure
    # Left-major, right rows ascending within a left row: the nested loop.
    shared = [a for a in left_schema if a in right_schema]
    extra = [i for i, a in enumerate(right_schema) if a not in left_schema]
    expected = [
        lrow + tuple(rrow[i] for i in extra)
        for lrow in left_rows
        for rrow in right_rows
        if all(lrow[left_schema.index(a)] == rrow[right_schema.index(a)] for a in shared)
    ]
    assert packed[1] == expected


@given(
    _distinct_rows(_LEFT_CODES, 3),
    _distinct_rows(_RIGHT_CODES, 3),
    st.sampled_from([("b",), ("b", "c")]),
    st.integers(0, 2**14 - 1),
)
@settings(**_KERNEL_CASE)
def test_semijoin_kernel_arms_leave_identical_alive_masks(
    target_rows, source_rows, on, source_dead
):
    def run():
        target = _NodeState(ColumnarRelation.from_rows(("a", "b", "c"), target_rows))
        source = _NodeState(ColumnarRelation.from_rows(("b", "c", "d"), source_rows))
        source_dead_mask = source_dead & ((1 << len(source_rows)) - 1)
        if source_dead_mask:
            source.kill(source_dead_mask)
        executor, stats = _executor(), ExecutionStatistics()
        nonempty = executor._semijoin(target, source, on, stats)
        # A second pass over unchanged masks reads the cached live keys.
        assert executor._semijoin(target, source, on, stats) == nonempty
        return nonempty, target.alive, target.live_count, set(source.live_table().rows())

    packed, pure = _on_both_arms(run)
    assert packed == pure
    nonempty, alive, live_count, source_live = packed
    live_keys = {tuple(row[("b", "c", "d").index(a)] for a in on) for row in source_live}
    expected = [
        tuple(row[("a", "b", "c").index(a)] for a in on) in live_keys
        for row in target_rows
    ]
    assert live_count == sum(expected) and nonempty == any(expected)
    if alive is not None:
        assert [bool(alive >> i & 1) for i in range(len(target_rows))] == expected
    else:
        assert all(expected)


@given(st.lists(st.tuples(_LEFT_CODES, _RIGHT_CODES, _LEFT_CODES), max_size=20))
@settings(**_KERNEL_CASE)
def test_dedupe_kernel_arms_return_the_same_row_set(rows):
    def run():
        columns = list(ColumnarRelation.from_rows(("a", "b", "c"), rows).columns)
        table = _dedupe_columns(("a", "b", "c"), columns, len(rows))
        return table.nrows, list(table.rows())

    (packed_n, packed), (pure_n, pure) = _on_both_arms(run)
    assert packed_n == pure_n == len(set(rows))
    assert set(packed) == set(pure) == set(rows)
    assert packed == sorted(packed)  # the packed arm sorts lexicographically


@pytest.mark.parametrize("unpackable", ["span", "negative"])
def test_unpackable_operators_fall_through_to_the_pure_kernels(unpackable, monkeypatch):
    # Two ways out of the packed kernels — a key span at the limit, a negative
    # code — must land on the pure-Python kernel of that one operator.
    _require_numpy_arm()
    low = -2 if unpackable == "negative" else 0
    if unpackable == "span":
        monkeypatch.setattr(columnar, "_PACK_LIMIT", 2**8)
    left_rows = sorted({(i % 5 + low, i % 7 + 100, i) for i in range(60)})
    right_rows = sorted({(i % 7 + 100, i % 3 + low, i % 4) for i in range(40)})

    def run():
        left = ColumnarRelation.from_rows(("a", "b", "c"), left_rows)
        right = ColumnarRelation.from_rows(("b", "a", "d"), right_rows)
        executor, stats = _executor(), ExecutionStatistics()
        joined = executor._join(left, right, stats)
        target, source = _NodeState(left), _NodeState(right)
        executor._semijoin(target, source, ("a", "b"), stats)
        distinct = _dedupe_columns(("b", "a"), [right.column("b"), right.column("a")], right.nrows)
        packable = columnar._np is not None and right.sorted_index(("a", "b")) is not None
        return (list(joined.rows()), target.alive, set(distinct.rows()), stats.as_dict()), packable

    (packed, packable), (pure, _) = _on_both_arms(run)
    assert not packable  # the numpy run really took the fall-through
    assert packed == pure
    assert packed[0] == [
        lrow + (rrow[2],)
        for lrow in left_rows
        for rrow in right_rows
        if (lrow[0], lrow[1]) == (rrow[1], rrow[0])
    ]

    # The same databases answer whole queries identically either way.
    query = ConjunctiveQuery(
        (Atom("r", ("x", "y", "z")), Atom("s", ("y", "x", "w"))), ("x", "w")
    )
    database = Database(
        [
            Relation("r", ["a0", "a1", "a2"], left_rows),
            Relation("s", ["a0", "a1", "a2"], right_rows),
        ]
    )
    _run_all_modes(query, database)
