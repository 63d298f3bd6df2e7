"""Three-way differential tests pinning the SQL pushdown executor.

A second executor doubles the surface where answers can silently diverge, so
this suite is the contract: on generated acyclic and bounded-width CQs with
random databases, the eager oracle (``tests/oracles/eager.py``) ==
``columnar`` == ``sql`` — byte-identical answers and field-for-field equal
results across all three answer modes, including empty relations, repeated
variables and single-atom queries, for in-memory *and* on-disk (SQLite
file) sources, with every mode run twice per store so a recycled execution
must equal a fresh one.  The satellite units cover program caching, store reuse,
cancellation and the path-shipping codec branch.
"""

from __future__ import annotations

import re
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles.eager import evaluate_eager

from repro.core import codec
from repro.exceptions import QueryError, TimeoutExceeded
from repro.hypergraph.cq import Atom, ConjunctiveQuery, parse_conjunctive_query
from repro.pipeline.engine import DecompositionEngine
from repro.query import (
    ColumnStore,
    Database,
    QueryEngine,
    Relation,
    SQLDatabase,
    SQLStore,
    compile_sql,
    dump_database,
    evaluate_query,
    naive_join_query,
    random_database_for_query,
)
from repro.query.plan import JoinOp
from repro.query.sqlgen import SQLExecutor, _digest
from repro.query.workload import _shared_engine

# --------------------------------------------------------------------------- #
# strategies: random CQs with matching random databases
# --------------------------------------------------------------------------- #
_VARIABLES = [f"v{i}" for i in range(6)]
#: Mixed-type values: SQL must agree with Python across ints, strings and
#: None (null-safe ``IS`` joins) — not just on a dense integer domain.
_VALUES = st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"]), st.none())
_MODES = ("enumerate", "boolean", "count")


@st.composite
def _query_and_database(draw, values=st.integers(0, 3), min_atoms=1, max_atoms=4):
    num_atoms = draw(st.integers(min_atoms, max_atoms))
    atoms = []
    for index in range(num_atoms):
        arity = draw(st.integers(1, 3))
        # Variables may repeat inside an atom (repeated-variable binding).
        arguments = tuple(draw(st.sampled_from(_VARIABLES)) for _ in range(arity))
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
            st.lists(st.tuples(*[values for _ in atom.arguments]), max_size=10)
        )
        database.add(Relation(atom.relation, schema, rows))
    # The SQL arm runs all three modes twice on one store, each round in a
    # drawn order: whatever an earlier run left behind is recycled by the
    # later ones, and the whole second round is.
    order = draw(st.permutations(_MODES)) + draw(st.permutations(_MODES))
    return query, database, order


def _payload(result):
    execution = result.execution
    return execution.answers, execution.boolean, execution.count, result.width


def _assert_three_way(query, database, order, sql_database=None):
    """eager == columnar == sql on every answer mode, byte-identical — through
    the ``evaluate_query`` facade and through an engine of the caller's own."""
    eager = evaluate_eager(query, database)
    target = database if sql_database is None else sql_database
    engine = QueryEngine(engine=DecompositionEngine())
    columnars = {
        mode: evaluate_query(query, database, mode=mode, executor="columnar")
        for mode in _MODES
    }
    for mode in order:
        columnar = columnars[mode]
        sql = evaluate_query(query, target, mode=mode, executor="sql")
        # One result shape whatever the executor, whatever the front door.
        assert _payload(sql) == _payload(columnar), mode
        for executor in ("columnar", "sql"):
            direct = engine.execute(query, target, mode, executor=executor)
            assert _payload(direct) == _payload(sql), (mode, executor)
        assert sql.boolean is (len(eager) > 0), mode
        if mode == "enumerate":
            assert sql.answers.as_dicts() == eager.as_dicts()
            assert columnar.answers.as_dicts() == eager.as_dicts()
        else:
            assert sql.answers is None, mode
        if mode != "boolean":
            assert sql.count == len(eager), mode


@given(_query_and_database())
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_three_way_differential_in_memory(case):
    _assert_three_way(*case)


@given(_query_and_database(values=_VALUES))
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_three_way_differential_mixed_types(case):
    # Strings and None flow through interning and the null-safe IS joins.
    _assert_three_way(*case)


@given(_query_and_database(min_atoms=5, max_atoms=6))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_three_way_differential_deep_trees(case):
    # Five or six atoms: about half the plans have a node with two or more
    # children and a third a three-level tree (1-4 atoms: about a tenth and
    # a twentieth), where the SQL arm's "the last join into a node
    # projects" rule bites.
    _assert_three_way(*case)


@given(case=_query_and_database())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_three_way_differential_on_disk(tmp_path_factory, case):
    # The same query answered against the database dumped to a SQLite file:
    # the SQL arm reads the file in place, eager/columnar load it lazily.
    query, database, order = case
    path = tmp_path_factory.mktemp("sqldb") / "facts.sqlite"
    on_disk = dump_database(database, path)
    _assert_three_way(query, database, order, sql_database=on_disk)


# --------------------------------------------------------------------------- #
# directed edge cases (the classes the generator can only hit by luck)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("s_rows", [[(2, 3)], [(4, 5)]], ids=["holds", "fails"])
def test_boolean_shaped_query_has_one_result_shape(s_rows):
    # No output variables: ``count`` answers 0/1 with ``answers=None`` on both
    # executors (the SQL arm used to attach a 0-ary relation).
    query = parse_conjunctive_query("r(x,y), s(y,z).")
    database = Database(
        [Relation("r", ["a0", "a1"], [(1, 2)]), Relation("s", ["a0", "a1"], s_rows)]
    )
    _assert_three_way(query, database, _MODES + _MODES)


def _sql_all_modes(query, database):
    naive = naive_join_query(database, query.atoms, query.free_variables)
    results = {}
    for mode in ("enumerate", "boolean", "count"):
        report = evaluate_query(query, database, mode=mode, executor="sql")
        results[mode] = report
        assert report.boolean == (len(naive) > 0), mode
    assert results["enumerate"].answers.as_dicts() == naive.as_dicts()
    assert results["count"].count == len(naive)
    return results


def test_empty_relation_early_exit():
    query = ConjunctiveQuery((Atom("r", ("x", "y")), Atom("s", ("y", "z"))), ("x",))
    database = Database(
        [Relation("r", ["a0", "a1"], []), Relation("s", ["a0", "a1"], [(1, 2)])]
    )
    results = _sql_all_modes(query, database)
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
    results = _sql_all_modes(query, database)
    assert results["enumerate"].answers.as_dicts() == {
        frozenset({("x", 1), ("y", 2)}),
        frozenset({("x", 3), ("y", 3)}),
    }


def test_single_atom_query():
    query = ConjunctiveQuery((Atom("r", ("x", "y")),), ("y",))
    database = Database([Relation("r", ["a0", "a1"], [(1, 2), (3, 2), (4, 5)])])
    results = _sql_all_modes(query, database)
    assert results["enumerate"].answers.as_dicts() == {
        frozenset({("y", 2)}),
        frozenset({("y", 5)}),
    }


def test_none_joins_with_itself():
    # SQL NULL never equals NULL under `=`; the generator must use `IS`.
    query = ConjunctiveQuery((Atom("r", ("x", "y")), Atom("s", ("y", "z"))), ("x", "z"))
    database = Database(
        [
            Relation("r", ["a0", "a1"], [(1, None)]),
            Relation("s", ["a0", "a1"], [(None, 7)]),
        ]
    )
    results = _sql_all_modes(query, database)
    assert results["count"].count == 1


# --------------------------------------------------------------------------- #
# engine integration: caching, stores, cancellation
# --------------------------------------------------------------------------- #
def test_sql_program_and_plan_are_cached():
    query = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z).")
    database = random_database_for_query(query, seed=11)
    # An engine of its own: ``evaluate_query`` shares the process-wide plan
    # cache, so an earlier test may have planned this shape there.
    engine = QueryEngine(engine=DecompositionEngine())
    first = engine.execute(query, database, "count", executor="sql")
    second = engine.execute(query, database, "count", executor="sql")
    assert second.plan_cached and not first.plan_cached
    assert first.count == second.count
    # One persistent store per database: connection and loaded tables reused.
    assert engine.sql_store_for(database) is engine.sql_store_for(database)
    planned, _ = engine.plan(query, "count")
    store = engine.sql_store_for(database)
    assert engine.sql_program(query, planned, store) is engine.sql_program(
        query, planned, store
    )


def test_evaluate_query_keeps_its_plan_and_the_database_its_store():
    # The facade rides one shared engine per configuration: a repeat replans
    # nothing, rebuilds nothing and — on the SQL arm — creates nothing.
    query = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z), t(z,x).")
    database = random_database_for_query(query, domain_size=5, seed=23)
    for executor in ("columnar", "sql"):
        first = evaluate_query(query, database, executor=executor)
        again = evaluate_query(query, database, executor=executor)
        assert again.plan_cached is True
        assert first.execution.statistics.bags_built > 0
        assert again.execution.statistics.bags_built == 0
        assert again.answers == first.answers
    log = []
    connection = _shared_engine("hybrid", 10, None).sql_store_for(database).connection()
    connection.set_trace_callback(log.append)
    try:
        evaluate_query(query, database, executor="sql")
    finally:
        connection.set_trace_callback(None)
    assert log and not any(statement.startswith("CREATE") for statement in log)


def test_sql_program_is_not_shared_across_arities():
    # Two in-memory databases on one engine whose `r` differs in arity: the
    # program compiled for the first must not be handed to the second (it
    # once was — both fingerprinted as ("memory",) — and answered count == 1).
    query = parse_conjunctive_query("ans(x, y) :- r(x,y), s(y,z).")
    binary = Database(
        [Relation("r", ["a0", "a1"], [(1, 2)]), Relation("s", ["a0", "a1"], [(2, 3)])]
    )
    ternary = Database(
        [Relation("r", ["a0", "a1", "a2"], [(1, 2, 3)]), Relation("s", ["a0", "a1"], [(2, 3)])]
    )
    engine = QueryEngine()
    for executor in ("columnar", "sql"):
        assert engine.execute(query, binary, "count", executor=executor).count == 1
        with pytest.raises(QueryError, match="atom r has arity 2 but relation 'r' has arity 3"):
            engine.execute(query, ternary, "count", executor=executor)


def test_both_executors_share_one_value_dictionary():
    query = parse_conjunctive_query(_LEDGER_SHAPES["chain3"][0])
    database = random_database_for_query(query, domain_size=6, seed=4)
    engine = QueryEngine(engine=DecompositionEngine())
    sql = engine.execute(query, database, executor="sql").answers
    columns = engine.store_for(database)
    assert engine.sql_store_for(database).columns is columns
    interned = list(columns._values)
    columnar = engine.execute(query, database, executor="columnar").answers
    # The SQL load interned every value once; the columnar arm adds none.
    relations = [database.get(name) for name in database.relation_names()]
    values = {value for relation in relations for row in relation.tuples for value in row}
    assert columns._values == interned and len(interned) == len(set(interned)) == len(values)
    assert sql == columnar and len(sql) > 0


def test_sql_executor_rejects_unknown_name():
    query = parse_conjunctive_query("ans(x) :- r(x,y).")
    database = random_database_for_query(query, seed=1)
    with pytest.raises(QueryError):
        QueryEngine().execute(query, database, executor="no-such-arm")
    with pytest.raises(QueryError):
        evaluate_query(query, database, executor="no-such-arm")


def test_sql_store_database_mismatch_rejected():
    query = parse_conjunctive_query("ans(x) :- r(x,y).")
    db1 = random_database_for_query(query, seed=1)
    db2 = random_database_for_query(query, seed=2)
    with pytest.raises(QueryError):  # one value dictionary belongs to one database
        SQLStore(db1, ColumnStore(db2))


def test_cancel_event_preempts_execution():
    query = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z).")
    database = random_database_for_query(query, seed=3)
    event = threading.Event()
    event.set()
    with pytest.raises(TimeoutExceeded, match="cancelled"):
        QueryEngine().execute(query, database, executor="sql", cancel_event=event)


def test_deadline_preempts_execution():
    query = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z).")
    database = random_database_for_query(query, seed=3)
    with pytest.raises(TimeoutExceeded, match="time budget"):
        QueryEngine().execute(query, database, executor="sql", timeout=-1.0)


def test_mid_flight_interrupt_leaves_store_reusable():
    # A cross-product large enough to outlive the cancel delay; afterwards
    # the same store must serve the next query (temp objects cleaned up).
    n = 200
    rows = {(i, j) for i in range(n) for j in range(3)}
    database = Database(
        [
            Relation("r", ["a0", "a1"], rows),
            Relation("s", ["a0", "a1"], rows),
            Relation("t", ["a0", "a1"], rows),
        ]
    )
    query = parse_conjunctive_query("ans(x, y, z, w) :- r(x,y), s(z,w), t(x,w).")
    engine = QueryEngine()
    event = threading.Event()
    timer = threading.Timer(0.1, event.set)
    timer.start()
    try:
        engine.execute(query, database, "enumerate", executor="sql", cancel_event=event)
    except TimeoutExceeded:
        pass  # expected on any non-glacial host; completion is also legal
    finally:
        timer.cancel()
    result = engine.execute(query, database, "count", executor="sql")
    assert result.count == (n * 3) ** 2  # t allows every (x, w) pair


# --------------------------------------------------------------------------- #
# on-disk handles and the wire format
# --------------------------------------------------------------------------- #
def test_sql_database_handle(tmp_path):
    query = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z).")
    database = random_database_for_query(query, seed=5)
    handle = dump_database(database, tmp_path / "facts.sqlite")
    assert set(handle.relation_names()) == set(database.relation_names())
    assert all(len(handle.get(name)) == len(database.get(name)) for name in database.relation_names())
    assert "r" in handle and "zzz" not in handle
    assert handle.get("r").as_dicts() == database.get("r").as_dicts()
    with pytest.raises(QueryError):
        handle.add(Relation("extra", ["a0"], [(1,)]))
    with pytest.raises(QueryError):
        handle.get("zzz")
    reopened = SQLDatabase(tmp_path / "facts.sqlite")
    assert reopened.table_columns("r") == ("a0", "a1")


def test_dump_database_rejects_non_scalars(tmp_path):
    database = Database([Relation("r", ["a0"], [((1, 2),)])])
    with pytest.raises(QueryError):
        dump_database(database, tmp_path / "bad.sqlite")


def test_codec_ships_sql_database_as_path(tmp_path):
    # The process backend's ship-once payload for an on-disk database is the
    # *path* token — rows never cross the pipe.
    query = parse_conjunctive_query("ans(x) :- r(x,y).")
    database = random_database_for_query(query, seed=9)
    handle = dump_database(database, tmp_path / "facts.sqlite")
    payload = codec.database_to_dict(handle)
    frame = codec.decode(payload, codec.DatabaseFrame)
    assert (frame.path, frame.relations) == (handle.path, None)
    rebuilt = codec.database_from_dict(payload)
    assert isinstance(rebuilt, SQLDatabase)
    assert rebuilt.get("r").as_dicts() == database.get("r").as_dicts()


def test_query_request_round_trips_executor():
    query = parse_conjunctive_query("ans(x) :- r(x,y).")
    payload = codec.query_request_to_dict(
        query=query, mode="count", database="db-1", timeout=None, executor="sql"
    )
    decoded = codec.service_request_from_dict(payload)
    assert decoded.executor == "sql"
    # A caller that names no executor gets the columnar arm.
    del payload["executor"]
    assert codec.service_request_from_dict(payload).executor == "columnar"


def test_compile_sql_program_shape():
    query = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z).")
    database = random_database_for_query(query, seed=2)
    engine = QueryEngine()
    planned, _ = engine.plan(query, "count")
    store = SQLStore(database)
    program = compile_sql(planned.plan, store.catalog_for(planned.plan))
    kinds = [kind for kind, _, _ in program.steps]
    assert kinds[0] == "atom" and {"atom", "index", "bag", "red", "join", "proj"} >= set(kinds)
    assert kinds.count("bag") == planned.plan.num_nodes
    assert kinds.count("red") == len(planned.plan.bottom_up) + len(planned.plan.top_down)
    names = [name for _, name, _ in program.steps]
    assert len(set(names)) == len(names)
    for kind, name, sql in program.steps:
        if kind == "index":
            assert sql.startswith(f"CREATE INDEX {name} ON {name.split('_ix')[0]} (")
            continue
        # A table is named by the hash of the SELECT that defines it ...
        head, select = f"CREATE TEMP TABLE {name} AS ", sql.split(" AS ", 1)[1]
        assert sql == head + select and name == f"{kind}_{_digest(select)}"
        # ... and reads only tables that earlier steps made (or a base table).
        for used in re.findall(r"\b(?:atom|bag|red|join|proj)_[0-9a-f]{16}\b", select):
            assert names.index(used) < names.index(name)
        if kind == "red":  # non-destructive: a derived table, not a DELETE
            assert select.startswith("SELECT T.* FROM ") and " WHERE EXISTS (" in select
    assert program.statements == tuple(sql for _, _, sql in program.steps) + (program.answer,)
    assert not re.search(r"\b(DELETE|DROP)\b", program.describe())
    assert program.answer_kind == "count" and "COUNT(*)" in program.answer
    # The root has a child, so its last join writes the answer's columns.
    assert planned.plan.children[0] and "proj" not in kinds
    _assert_pushed_down(planned.plan, program)
    # Names depend on the definition alone: recompiling yields the same
    # program, and the other modes of the shape share its tables.
    assert compile_sql(planned.plan, store.catalog_for(planned.plan)) == program
    boolean, _ = engine.plan(query, "boolean")
    shared = compile_sql(boolean.plan, store.catalog_for(boolean.plan)).steps
    assert shared == program.steps[: len(shared)]
    # Executing the compiled program directly matches the engine result.
    result = SQLExecutor(store).execute(planned.plan, program)
    assert result.count == engine.execute(query, database, "count", executor="sql").count


# --------------------------------------------------------------------------- #
# the compiler's shape: what each step writes and what it probes
# --------------------------------------------------------------------------- #
def _compiled(text, mode, database=None):
    query = parse_conjunctive_query(text)
    planned, _ = QueryEngine(engine=DecompositionEngine()).plan(query, mode)
    if database is None:
        database = random_database_for_query(query, seed=1)
    return planned.plan, compile_sql(planned.plan, SQLStore(database).catalog_for(planned.plan))


def _joins(plan, program):
    """The plan's JoinOps paired with the join steps compiled from them."""
    ops = [op for op in plan.join_schedule if isinstance(op, JoinOp)]
    steps = [(name, sql) for kind, name, sql in program.steps if kind == "join"]
    assert len(steps) == len(ops)
    return [(op, name, sql) for op, (name, sql) in zip(ops, steps)]


def _written(sql):
    """The columns a ``CREATE ... AS SELECT DISTINCT`` step writes."""
    head = sql.split(" AS SELECT DISTINCT ", 1)[1].split(" FROM ", 1)[0]
    return tuple(re.findall(r'AS "([^"]+)"', head))


def _assert_pushed_down(plan, program):
    """The invariants of the projection push-down and the bag probes."""
    joins = _joins(plan, program)
    reads = {op.source: op.retain for op, _, _ in joins}
    reads[0] = plan.output
    last = {op.target: index for index, (op, _, _) in enumerate(joins)}
    for index, (op, _, sql) in enumerate(joins):
        if last[op.target] == index:  # writes exactly what its consumer reads
            assert set(_written(sql)) == set(reads[op.target] or ("__unit__",))
        else:  # more children to join: the node keeps its bag variables
            assert set(plan.node_variables[op.target]) <= set(_written(sql))
        # A child's last join already wrote ``retain``: read as it is.
        assert not re.search(r"\(SELECT DISTINCT [^()]* FROM join_", sql)
    bags = [sql for kind, _, sql in program.steps if kind == "bag"]
    for bag, sql in zip(plan.bags, bags):
        assert sql.count("EXISTS") == sum(i not in bag.cover for i in bag.assigned)
    for kind, name, sql in program.steps:
        if kind == "index" and name.startswith("atom_"):
            on = name.split("_ix")[0]  # only a bag's probe reads an atom index
            assert any(f"EXISTS (SELECT 1 FROM {on} AS e" in sql for sql in bags)


#: The five CQ shapes of the perf ledger (copied: tier-1 does not import
#: ``benchmarks/``) with the per-kind step counts of their boolean and
#: count programs; enumerate compiles to the count program's steps.
_LEDGER_SHAPES = {
    "chain3": (
        "ans(a,d) :- r1(a,b), r2(b,c), r3(c,d).",
        {"atom": 3, "bag": 3, "index": 2, "red": 2},
        {"atom": 3, "bag": 3, "index": 4, "red": 4, "join": 2},
    ),
    "triangle": (
        "ans(a,b,c) :- r1(a,b), r2(b,c), r3(c,a).",
        {"atom": 3, "bag": 2, "index": 1, "red": 1},
        {"atom": 3, "bag": 2, "index": 2, "red": 2, "join": 1},
    ),
    "star3": (
        "ans(x,a,b) :- r1(x,a), r2(x,b), r3(x,c).",
        {"atom": 3, "bag": 3, "index": 2, "red": 2},
        {"atom": 3, "bag": 3, "index": 3, "red": 4, "join": 2},
    ),
    "cycle4tail": (
        "ans(a,c,e) :- r1(a,b), r2(b,c), r3(c,d), r4(d,a), r5(d,e).",
        {"atom": 5, "bag": 4, "index": 3, "red": 3},
        {"atom": 5, "bag": 4, "index": 6, "red": 6, "join": 3},
    ),
    "bowtie": (
        "ans(a,b,d) :- r1(a,b), r2(b,c), r3(c,a), r4(c,d), r5(d,e), r6(e,c).",
        {"atom": 6, "bag": 4, "index": 4, "red": 3},
        {"atom": 6, "bag": 4, "index": 7, "red": 6, "join": 3},
    ),
}


@pytest.mark.parametrize("shape", sorted(_LEDGER_SHAPES))
def test_ledger_shapes_compile_to_pinned_step_counts(shape):
    # A compiler change that adds (or saves) a statement shows here.
    text, boolean_kinds, count_kinds = _LEDGER_SHAPES[shape]
    programs = {mode: _compiled(text, mode) for mode in _MODES}
    for mode, expected in (("boolean", boolean_kinds), ("count", count_kinds)):
        plan, program = programs[mode]
        kinds = [kind for kind, _, _ in program.steps]
        assert {kind: kinds.count(kind) for kind in set(kinds)} == expected, mode
        _assert_pushed_down(plan, program)
    # count and enumerate share everything but the final SELECT.
    assert programs["enumerate"][1].steps == programs["count"][1].steps


#: Digest of each ledger shape's program text, its three modes in order.
#: Table names hash their SQL, so equal text also keeps recycled tables'
#: names: a refactor of the planner or the compiler must leave these alone.
_LEDGER_SQL_DIGESTS = {
    "bowtie": "89aec0e456cbcccb",
    "chain3": "a6a93af684251156",
    "cycle4tail": "18caa4e1985b32ba",
    "star3": "c51199906f34930f",
    "triangle": "2b14f6ea65c4ec37",
}


@pytest.mark.parametrize("shape", sorted(_LEDGER_SHAPES))
def test_ledger_shapes_compile_to_pinned_sql_text(shape):
    text = _LEDGER_SHAPES[shape][0]
    statements = [s for mode in _MODES for s in _compiled(text, mode)[1].statements]
    assert _digest("\n".join(statements)) == _LEDGER_SQL_DIGESTS[shape]


def test_node_with_two_children_projects_on_its_last_join_only():
    plan, program = _compiled(_LEDGER_SHAPES["star3"][0], "count")
    assert len(plan.children[0]) == 2
    first, last = [sql for op, _, sql in _joins(plan, program) if op.target == 0]
    assert set(_written(first)) == set(plan.node_variables[0]) | {"b"}
    assert _written(last) == plan.output == ("x", "a", "b")
    query = parse_conjunctive_query(_LEDGER_SHAPES["star3"][0])
    _assert_three_way(query, random_database_for_query(query, domain_size=4, seed=7), _MODES)


def test_output_variable_living_only_in_a_leaf():
    text = _LEDGER_SHAPES["chain3"][0]
    plan, program = _compiled(text, "enumerate")
    leaves = [node for node in range(plan.num_nodes) if not plan.children[node]]
    assert "d" not in plan.node_variables[0]
    assert any("d" in plan.node_variables[node] for node in leaves)
    (_, child, _), (_, root, sql) = _joins(plan, program)
    # The root's last join writes the answer; it reads the child's join
    # table as it is, not through a SELECT DISTINCT subquery.
    assert program.root == root and _written(sql) == ("a", "d")
    assert f"{child} AS R" in sql and "(SELECT DISTINCT" not in sql
    assert "proj" not in [kind for kind, _, _ in program.steps]
    query = parse_conjunctive_query(text)
    _assert_three_way(query, random_database_for_query(query, domain_size=4, seed=5), _MODES)


@pytest.mark.parametrize("s_rows, rows", [([(2, 3)], 1), ([(4, 5)], 0)], ids=["holds", "fails"])
def test_boolean_shaped_count_folds_into_a_unit_row(s_rows, rows):
    # No output variables under count / enumerate: the root's last join is
    # the 0-ary projection, one ``__unit__`` row or none.
    database = Database(
        [Relation("r", ["a0", "a1"], [(1, 2)]), Relation("s", ["a0", "a1"], s_rows)]
    )
    for mode in ("count", "enumerate"):
        plan, program = _compiled("r(x,y), s(y,z).", mode, database)
        (_, root, sql), = _joins(plan, program)
        assert program.root == root and _written(sql) == ("__unit__",)
        store = SQLStore(database)
        result = SQLExecutor(store).execute(plan, program)
        assert result.boolean is bool(rows) and store._tables.get(root, 0) == rows


def test_cover_atom_is_never_probed_against_itself():
    # A lone atom covers and is assigned to its bag: no EXISTS, no index.
    plan, program = _compiled("ans(x, y) :- r(x, y).", "count")
    assert plan.bags[0].assigned == plan.bags[0].cover
    assert [kind for kind, _, _ in program.steps] == ["atom", "bag"]
    # In the bowtie one bag probes r3, which it does not cover, and only r3.
    plan, program = _compiled(_LEDGER_SHAPES["bowtie"][0], "count")
    atom_indexes = [name for kind, name, _ in program.steps if kind == "index" and name.startswith("atom_")]
    probed = [b for b in plan.bags if any(i not in b.cover for i in b.assigned)]
    assert len(probed) == len(atom_indexes) == 1
    assert [plan.atoms[i].relation for i in probed[0].assigned if i not in probed[0].cover] == ["r3"]
