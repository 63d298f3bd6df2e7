"""The SQL store recycles its intermediates.

Every temp table of a compiled SQL program is a pure function of its inputs
and is named by a hash of its definition, so a :class:`SQLStore` keeps the
tables across executions and a later program runs only the statements
nobody has run before.  This suite pins what that buys (no ``CREATE`` on a
repeat, shared work across answer modes), what it must never cost (a table
that exists but is not registered, or the reverse; a stale answer after the
file changed; unbounded temp space) and that the statistics count executed
work only.  Answer equality of recycled and fresh runs is the business of
the differential in ``test_sql_executor.py``.
"""

from __future__ import annotations

import gc
import sqlite3
import threading

import pytest

from repro import faults
from repro.exceptions import TimeoutExceeded
from repro.faults import FaultRule
from repro.hypergraph.cq import parse_conjunctive_query
from repro.pipeline.engine import DecompositionEngine
from repro.query import (
    Database,
    QueryEngine,
    Relation,
    SQLDatabase,
    SQLStore,
    dump_database,
    random_database_for_query,
)
from repro.query import sqlgen

TRIANGLE = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z), t(z,x).")
MODES = ("boolean", "count", "enumerate")


def _engine():
    return QueryEngine(engine=DecompositionEngine(cache=False))


def _database(seed=3):
    return random_database_for_query(TRIANGLE, domain_size=5, tuples_per_relation=20, seed=seed)


def _assert_registry_matches_connection(store):
    """A temp object exists on the connection iff the store registered it."""
    present = store.connection().execute("SELECT name FROM sqlite_temp_master").fetchall()
    assert {name for (name,) in present} == set(store._tables)
    assert store._rows == sum(store._tables.values())


def _statements(engine, database, mode, query=TRIANGLE):
    """Run one query; return (result, the statements SQLite saw)."""
    log = []
    connection = engine.sql_store_for(database).connection()
    connection.set_trace_callback(log.append)
    try:
        result = engine.execute(query, database, mode, executor="sql")
    finally:
        connection.set_trace_callback(None)
    return result, log


def _creates(engine, database, mode, query=TRIANGLE):
    """Run one query; return (result, number of CREATE statements SQLite saw)."""
    result, log = _statements(engine, database, mode, query)
    return result, sum(statement.startswith("CREATE") for statement in log)


# --------------------------------------------------------------------------- #
# (a) what runs: only the statements nobody has run before
# --------------------------------------------------------------------------- #
def test_repeated_query_issues_no_create_and_modes_share_tables():
    fresh = {}
    for mode in MODES:  # each mode alone on a store of its own
        fresh[mode] = _creates(_engine(), _database(), mode)
        assert fresh[mode][1] > 0

    engine, database = _engine(), _database()
    for mode in MODES:  # boolean -> count -> enumerate on one store
        result, creates = _creates(engine, database, mode)
        assert result.count == fresh[mode][0].count
        if mode == "boolean":
            assert creates == fresh[mode][1]  # nothing to share yet
        else:
            assert creates < fresh[mode][1]  # atoms, bags, the bottom-up pass...
    # count -> enumerate share the whole reduction and the join schedule.
    assert creates == 0
    for mode in MODES:
        result, creates = _creates(engine, database, mode)
        assert creates == 0
        assert result.answers == fresh[mode][0].answers and result.count == fresh[mode][0].count
    _assert_registry_matches_connection(engine.sql_store_for(database))


def test_statistics_count_executed_work_only():
    engine, database = _engine(), _database()
    planned, _ = engine.plan(TRIANGLE, "count")
    store = engine.sql_store_for(database)
    kinds = [kind for kind, _, _ in engine.sql_program(TRIANGLE, planned, store).steps]
    cold = engine.execute(TRIANGLE, database, "count", executor="sql").execution.statistics
    assert not cold.early_exit
    assert (cold.bags_built, cold.bags_reused) == (kinds.count("bag"), 0)
    assert (cold.indexes_built, cold.indexes_reused) == (kinds.count("index"), 0)
    semijoins = len(planned.plan.bottom_up) + len(planned.plan.top_down)
    assert cold.semijoins_run == kinds.count("red") == semijoins
    assert cold.joins_run == kinds.count("join")
    warm = engine.execute(TRIANGLE, database, "count", executor="sql").execution.statistics
    assert (warm.bags_built, warm.indexes_built, warm.semijoins_run, warm.joins_run) == (0, 0, 0, 0)
    assert (warm.bags_reused, warm.indexes_reused) == (cold.bags_built, cold.indexes_built)
    # The scalar answers are the root table's registered row count: a warm
    # ``boolean`` or ``count`` reaches SQLite with no statement at all, and a
    # warm ``enumerate`` with its final SELECT only.
    for mode, expected in (("boolean", 0), ("count", 0), ("enumerate", 1)):
        engine.execute(TRIANGLE, database, mode, executor="sql")
        assert len(_statements(engine, database, mode)[1]) == expected, mode


def test_recycled_empty_table_is_an_immediate_early_exit():
    query = parse_conjunctive_query("ans(x) :- r(x,y), s(y,z).")
    database = Database([Relation("r", ["a0", "a1"], [(1, 2)]), Relation("s", ["a0", "a1"], [])])
    engine = _engine()
    for _ in range(2):
        for mode in MODES:
            result, _ = _creates(engine, database, mode, query)
            assert result.execution.statistics.early_exit and not result.boolean
    assert _creates(engine, database, "enumerate", query)[1] == 0
    _assert_registry_matches_connection(engine.sql_store_for(database))


# --------------------------------------------------------------------------- #
# (c) a failed or interrupted execution leaves registry == connection
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "statement, skip",
    [("create", 0), ("create", 4), ("create", 9), ("select", 0), ("select", 3)],
)
def test_fault_mid_program_leaves_no_orphan_and_retry_succeeds(statement, skip):
    # "create" fails a CREATE itself; "select" fails the row count that
    # follows a successful CREATE — the table must not stay behind unregistered.
    engine, database = _engine(), _database()
    expected = engine.execute(TRIANGLE, database, "enumerate", executor="columnar")
    rule = FaultRule(
        point="sqlgen.exec",
        error=sqlite3.OperationalError("disk I/O error"),
        where={"statement": statement},
        skip=skip,
        times=3,  # initial attempt + both retries
    )
    with faults.injected(rule) as injector:
        with pytest.raises(sqlite3.OperationalError, match="disk I/O error"):
            engine.execute(TRIANGLE, database, "enumerate", executor="sql")
    assert injector.total_injected() == 3
    store = engine.sql_store_for(database)
    _assert_registry_matches_connection(store)
    before = len(store._tables)
    result = engine.execute(TRIANGLE, database, "enumerate", executor="sql")
    assert result.answers == expected.answers
    assert len(store._tables) > before  # resumed from what the failed run kept
    _assert_registry_matches_connection(store)


def test_interrupt_mid_create_leaves_no_orphan():
    n = 200
    rows = {(i, j) for i in range(n) for j in range(3)}
    database = Database([Relation(name, ["a0", "a1"], rows) for name in "rst"])
    query = parse_conjunctive_query("ans(x, y, z, w) :- r(x,y), s(z,w), t(x,w).")
    engine = _engine()
    event = threading.Event()
    timer = threading.Timer(0.05, event.set)
    timer.start()
    try:
        engine.execute(query, database, "enumerate", executor="sql", cancel_event=event)
    except TimeoutExceeded:
        pass  # expected on any non-glacial host; completion is also legal
    finally:
        timer.cancel()
    store = engine.sql_store_for(database)
    _assert_registry_matches_connection(store)
    assert engine.execute(query, database, "count", executor="sql").count == (n * 3) ** 2
    _assert_registry_matches_connection(store)


def test_interrupted_bulk_load_leaves_no_half_filled_base_table():
    # SQLite's progress handler aborts the first base relation's INSERTs
    # part-way.  The relation loads in one transaction, so nothing of it
    # stays behind: once the handler is gone the next execution loads it
    # afresh (it used to fail for good on `table "base_r" already exists`).
    rows = {(i, i % 7) for i in range(500)}
    database = Database([Relation(name, ["a0", "a1"], rows) for name in "rs"])
    query = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z).")
    engine = _engine()
    expected = engine.execute(query, database, "count", executor="columnar").count
    store = engine.sql_store_for(database)
    connection = store.connection()
    connection.set_progress_handler(lambda: 1, 500)
    try:
        with pytest.raises(sqlite3.OperationalError, match="interrupted"):
            engine.execute(query, database, "count", executor="sql")
    finally:
        connection.set_progress_handler(None, 0)
    assert not store._loaded and not connection.in_transaction
    tables = connection.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
    assert tables.fetchall() == []
    assert engine.execute(query, database, "count", executor="sql").count == expected
    _assert_registry_matches_connection(store)


# --------------------------------------------------------------------------- #
# (d) an on-disk file changed by another connection invalidates everything
# --------------------------------------------------------------------------- #
def test_commit_by_another_connection_changes_the_answer(tmp_path):
    path = tmp_path / "facts.sqlite"
    handle = dump_database(_database(), path)
    engine = _engine()
    first = engine.execute(TRIANGLE, handle, "enumerate", executor="sql")
    again = engine.execute(TRIANGLE, handle, "enumerate", executor="sql")
    assert again.answers == first.answers and again.execution.statistics.bags_built == 0

    other = sqlite3.connect(path)
    try:  # close a triangle over values no generated row uses
        for relation in "rst":
            other.execute(f"INSERT INTO {relation} VALUES (?, ?)", (777, 777))
        other.commit()
    finally:
        other.close()

    after = engine.execute(TRIANGLE, handle, "enumerate", executor="sql")
    assert after.execution.statistics.bags_built > 0  # nothing stale was recycled
    assert after.count == first.count + 1 and (777, 777) in after.answers.tuples
    expected = _engine().execute(TRIANGLE, SQLDatabase(path), "enumerate", executor="columnar")
    assert after.answers == expected.answers
    _assert_registry_matches_connection(engine.sql_store_for(handle))


def test_a_commit_between_two_statements_is_not_a_torn_answer(tmp_path, monkeypatch):
    # Each statement reads its own snapshot of the file, so a commit after
    # the first CREATE would join the old r with the new s: every state of
    # the file answers one row, the torn mix none.  The run reads the data
    # version again at its end and runs again at the new one.
    query = parse_conjunctive_query("ans(x,z) :- r(x,y), s(y,z).")
    path = tmp_path / "torn.sqlite"
    handle = dump_database(
        Database([Relation("r", ["a0", "a1"], [(0, 0)]), Relation("s", ["a0", "a1"], [(0, 0)])]),
        path,
    )
    execute, committed = sqlgen.SQLExecutor._exec, []

    def commit_after_the_first_create(self, connection, sql, guard=None):
        cursor = execute(self, connection, sql, guard)
        if sql.startswith("CREATE") and not committed:
            committed.append(sql)
            with sqlite3.connect(path) as writer:
                writer.execute("UPDATE r SET a1 = 1")
                writer.execute("UPDATE s SET a0 = 1, a1 = 1")
            writer.close()
        return cursor

    monkeypatch.setattr(sqlgen.SQLExecutor, "_exec", commit_after_the_first_create)
    engine = _engine()
    answers = engine.execute(query, handle, "enumerate", executor="sql").answers.tuples
    assert committed
    assert answers == {(0, 1)}
    _assert_registry_matches_connection(engine.sql_store_for(handle))


# --------------------------------------------------------------------------- #
# resource hygiene: the store owns its temp tables for its whole life
# --------------------------------------------------------------------------- #
def _distinct_queries(count):
    # Renamed variables make every query's tables distinct by name.
    return [
        (
            parse_conjunctive_query(
                f"ans(x{i}, z{i}) :- r(x{i},y{i}), s(y{i},z{i}), t(z{i},x{i})."
            ),
            MODES[i % 3],
        )
        for i in range(count)
    ]


def test_row_budget_bounds_temp_space_and_eviction_is_transparent(monkeypatch):
    queries = _distinct_queries(40)
    database = _database()
    # A store with room for everything tells how many rows one program holds.
    roomy = _engine()
    answers = [roomy.execute(query, database, mode, executor="sql") for query, mode in queries]
    unbounded = roomy.sql_store_for(database)
    program_rows = []
    for query, mode in queries:
        planned, _ = roomy.plan(query, mode)
        steps = roomy.sql_program(query, planned, unbounded).steps
        program_rows.append(sum(unbounded._tables[name] for _, name, _ in steps))
    budget = 2 * max(program_rows)
    assert unbounded._rows > 3 * budget  # the budget below really binds

    monkeypatch.setattr(sqlgen, "_ROW_BUDGET", budget)
    engine = _engine()
    store = engine.sql_store_for(database)
    for (query, mode), expected in zip(queries, answers):
        result = engine.execute(query, database, mode, executor="sql")
        assert result.count == expected.count and result.answers == expected.answers
        _assert_registry_matches_connection(store)
        assert store._rows <= budget
        # Whatever the program that just ran made or used is still there.
        planned, _ = engine.plan(query, mode)
        steps = engine.sql_program(query, planned, store).steps
        assert all(name in store._tables for _, name, _ in steps)
    first_query, first_mode = queries[0]
    planned, _ = engine.plan(first_query, first_mode)
    first_steps = engine.sql_program(first_query, planned, store).steps
    assert not any(name in store._tables for _, name, _ in first_steps)  # long evicted
    rebuilt = engine.execute(first_query, database, first_mode, executor="sql")
    assert rebuilt.execution.statistics.bags_built > 0
    assert rebuilt.count == answers[0].count and rebuilt.boolean == answers[0].boolean
    _assert_registry_matches_connection(store)


def test_a_program_larger_than_the_budget_keeps_its_own_tables(monkeypatch):
    monkeypatch.setattr(sqlgen, "_ROW_BUDGET", 1)
    engine, database = _engine(), _database()
    store = engine.sql_store_for(database)
    first = engine.execute(TRIANGLE, database, "count", executor="sql")
    assert store._rows > 1  # pinned tables are never evicted, whatever the budget
    _, creates = _creates(engine, database, "count")
    assert creates == 0
    other, mode = _distinct_queries(1)[0]
    engine.execute(other, database, "count", executor="sql")  # now TRIANGLE's tables go
    planned, _ = engine.plan(TRIANGLE, "count")
    steps = engine.sql_program(TRIANGLE, planned, store).steps
    assert not any(name in store._tables for _, name, _ in steps)
    _assert_registry_matches_connection(store)
    assert engine.execute(TRIANGLE, database, "count", executor="sql").count == first.count


def test_close_is_idempotent_and_a_closed_store_starts_cold():
    engine, database = _engine(), _database()
    store = engine.sql_store_for(database)
    first = engine.execute(TRIANGLE, database, "count", executor="sql")
    connection = store.connection()
    store.close()
    store.close()
    assert not store._tables and store._rows == 0
    with pytest.raises(sqlite3.ProgrammingError):
        connection.execute("SELECT 1")  # really closed
    again = engine.execute(TRIANGLE, database, "count", executor="sql")
    assert again.count == first.count and again.execution.statistics.bags_built > 0
    _assert_registry_matches_connection(store)


def test_collected_store_closes_its_connection():
    store = SQLStore(_database())
    connection = store.connection()
    del store
    gc.collect()
    with pytest.raises(sqlite3.ProgrammingError):
        connection.execute("SELECT 1")
