"""In-flight cancellation of running query executions.

Pins the watchdog contract of the columnar executor — polling its
:class:`~repro.deadline.Deadline` every ``_CHECK_STRIDE`` kernel rows, a set
cancel event or an expired deadline aborts the execution at the *next*
periodic check, not at some later stage boundary — and exercises the serving
layer's ``cancelled_running`` accounting for queries aborted mid-execution.
"""

from __future__ import annotations

import sqlite3
import threading
import time

import pytest

from repro.deadline import Deadline
from repro.exceptions import ServiceError, TimeoutExceeded
from repro.hypergraph.cq import parse_conjunctive_query
from repro.pipeline.engine import DecompositionEngine
from repro.query import QueryEngine, random_database_for_query
from repro.query import columnar
from repro.query.columnar import (
    ColumnarRelation,
    ColumnStore,
    ExecutionStatistics,
    PlanExecutor,
)
from repro.query.database import Database
from repro.query.plan import AnswerMode
from repro.query.sqlgen import _InterruptGuard
from repro.service import DecompositionService


class _TripAfter:
    """Cancel-event double: ``is_set()`` turns True after ``n`` polls."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.calls = 0

    def is_set(self) -> bool:
        self.calls += 1
        return self.calls > self.n


QUERY = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z), t(z,x).")


def _engine_and_database():
    engine = QueryEngine(engine=DecompositionEngine(cache=False))
    database = random_database_for_query(QUERY, domain_size=6, tuples_per_relation=30)
    return engine, database


# --------------------------------------------------------------------------- #
# watchdog unit behaviour
# --------------------------------------------------------------------------- #
def _armed(event=None, at=None) -> PlanExecutor:
    return PlanExecutor(ColumnStore(Database()), Deadline(at, event))


def test_watchdog_raises_on_first_poll_after_cancel(monkeypatch):
    monkeypatch.setattr(columnar, "_CHECK_STRIDE", 1)
    event = _TripAfter(3)
    executor = _armed(event)
    for _ in range(3):
        executor._tick()  # polls 1..3 see an unset event
    with pytest.raises(TimeoutExceeded):
        executor._tick()
    assert event.calls == 4  # aborted at exactly the first positive poll


def test_watchdog_stride_bounds_poll_frequency(monkeypatch):
    monkeypatch.setattr(columnar, "_CHECK_STRIDE", 4)
    event = _TripAfter(0)  # set from the start
    executor = _armed(event)
    executor._tick()
    executor._tick()
    executor._tick()  # three ticks under stride 4: no poll yet
    assert event.calls == 0
    with pytest.raises(TimeoutExceeded):
        executor._tick()
    assert event.calls == 1


def test_watchdog_expired_deadline_raises():
    executor = _armed(at=time.monotonic() - 1.0)
    with pytest.raises(TimeoutExceeded):
        executor._check()


# --------------------------------------------------------------------------- #
# executor-level cancellation (pinned: abort within one check interval)
# --------------------------------------------------------------------------- #
def test_enumerate_execution_cancels_within_one_check_interval(monkeypatch):
    monkeypatch.setattr(columnar, "_CHECK_STRIDE", 1)
    engine, database = _engine_and_database()
    planned, _ = engine.plan(QUERY, AnswerMode.ENUMERATE)

    # Baseline: count how many polls a full run performs with stride 1.
    # Fresh stores keep the two runs identical — a warm store would reuse
    # cached bag tables and perform fewer checks.
    probe = _TripAfter(10**9)
    PlanExecutor(ColumnStore(database), Deadline(cancel_event=probe)).execute(planned.plan)
    assert probe.calls > 1

    # Cancel mid-run: the executor must abort at the first poll that sees
    # the set event — one check interval, not the rest of the plan.
    trip_at = probe.calls // 2
    event = _TripAfter(trip_at)
    with pytest.raises(TimeoutExceeded):
        PlanExecutor(ColumnStore(database), Deadline(cancel_event=event)).execute(planned.plan)
    assert event.calls == trip_at + 1


def test_cartesian_product_polls_once_per_block(monkeypatch):
    # Disjoint λ-cover atoms in one bag join as a cartesian product; it is
    # built in blocks of left rows with a poll before each, so a cancelled
    # query stops within one block instead of finishing 300 x 300 rows.
    left = ColumnarRelation.from_rows(("a",), [(i,) for i in range(300)])
    right = ColumnarRelation.from_rows(("b",), [(i,) for i in range(300)])
    monkeypatch.setattr(columnar, "_CHECK_STRIDE", 64)  # a block is 16 * 64 = 1024
    blocks = 100  # output rows = 3 left rows

    probe = _TripAfter(10**9)
    executor = _armed(probe)
    product = executor._join(left, right, ExecutionStatistics())
    assert product.nrows == 300 * 300
    assert list(product.rows())[:301] == [(0, b) for b in range(300)] + [(1, 0)]
    assert blocks <= probe.calls <= blocks + 2

    event = _TripAfter(5)
    executor = _armed(event)
    with pytest.raises(TimeoutExceeded):
        executor._join(left, right, ExecutionStatistics())
    assert event.calls == 6  # aborted at the first positive poll


def test_generous_deadline_does_not_change_answers():
    engine, database = _engine_and_database()
    unarmed = engine.execute(QUERY, database, AnswerMode.ENUMERATE)
    armed = engine.execute(QUERY, database, AnswerMode.ENUMERATE, timeout=300.0)
    assert armed.answers.as_dicts() == unarmed.answers.as_dicts()


def test_execute_with_expired_timeout_raises():
    engine, database = _engine_and_database()
    with pytest.raises(TimeoutExceeded):
        engine.execute(QUERY, database, AnswerMode.ENUMERATE, timeout=-1.0)


@pytest.mark.parametrize("mode", list(AnswerMode))
def test_a_recycled_plan_still_honours_a_fired_deadline(mode):
    # The outcome is recycled, but the first step of every execution is
    # still a deadline poll: an already-cancelled or expired execution
    # raises instead of answering from the store.
    engine, database = _engine_and_database()
    planned, _ = engine.plan(QUERY, mode)
    store = ColumnStore(database)
    PlanExecutor(store).execute(planned.plan)
    recycled = PlanExecutor(store).execute(planned.plan)
    assert recycled.statistics.joins_run == recycled.statistics.semijoins_run == 0
    cancelled = threading.Event()
    cancelled.set()
    for deadline in (Deadline(cancel_event=cancelled), Deadline(at=time.monotonic() - 1.0)):
        with pytest.raises(TimeoutExceeded):
            PlanExecutor(store, deadline).execute(planned.plan)


def test_a_cancelled_run_recycles_nothing(monkeypatch):
    # A run that raises stores no outcome: the next execution of the plan
    # on the same store runs its program again and answers in full.
    monkeypatch.setattr(columnar, "_CHECK_STRIDE", 1)
    engine, database = _engine_and_database()
    planned, _ = engine.plan(QUERY, AnswerMode.ENUMERATE)
    store = ColumnStore(database)
    with pytest.raises(TimeoutExceeded):
        PlanExecutor(store, Deadline(cancel_event=_TripAfter(5))).execute(planned.plan)
    result = PlanExecutor(store).execute(planned.plan)
    assert result.statistics.semijoins_run > 0
    expected = PlanExecutor(ColumnStore(database)).execute(planned.plan)
    assert result.answers.tuples == expected.answers.tuples


# --------------------------------------------------------------------------- #
# service-level cancellation accounting
# --------------------------------------------------------------------------- #
class _GatedRelation:
    """Relation double whose tuples block until released.

    ``Database.add`` only reads ``name``; the columnar store reads
    ``schema``/``tuples`` when it first materialises an atom table, which
    happens inside the running execution — so a service query against this
    relation is reliably *started* (and inside the executor) while gated.
    """

    def __init__(self, inner, started: threading.Event, release: threading.Event):
        self._inner = inner
        self._started = started
        self._release = release
        self.name = inner.name
        self.schema = inner.schema

    @property
    def tuples(self):
        self._started.set()
        assert self._release.wait(timeout=30)
        return self._inner.tuples


def _gated_database(started, release):
    real = random_database_for_query(QUERY, domain_size=6, tuples_per_relation=30)
    database = Database()
    database.add(_GatedRelation(real.get("r"), started, release))
    for name in ("s", "t"):
        database.add(real.get(name))
    return database


def test_cancel_aborts_running_query(cycle6):
    started, release = threading.Event(), threading.Event()
    database = _gated_database(started, release)
    svc = DecompositionService(workers=2, engine=DecompositionEngine(cache=False))
    try:
        ticket = svc.submit_query(QUERY, database, "enumerate")
        assert started.wait(timeout=10)  # execution is inside the store build
        assert ticket.cancel() is True
        release.set()  # the executor resumes, then sees the event and aborts
        with pytest.raises(ServiceError):
            ticket.result(timeout=30)
        deadline = time.monotonic() + 10
        while svc.stats().cancelled == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        stats = svc.stats()
        assert stats.cancelled == 1
        assert stats.cancelled_running == 1  # aborted while executing
        # The service keeps serving afterwards.
        assert svc.submit(cycle6, 2).result(timeout=30).success
    finally:
        svc.shutdown(wait=True, cancel_pending=True)


def test_queued_cancel_is_not_counted_as_running(cycle6):
    started, release = threading.Event(), threading.Event()
    database = _gated_database(started, release)
    svc = DecompositionService(workers=1, engine=DecompositionEngine(cache=False))
    try:
        blocker = svc.submit_query(QUERY, database, "enumerate")
        assert started.wait(timeout=10)
        queued = svc.submit(cycle6, 2)  # sits behind the gated query
        assert queued.cancel() is True  # dropped before it ever ran
        release.set()
        assert blocker.result(timeout=30).boolean in (True, False)
        stats = svc.stats()
        assert stats.cancelled == 1
        assert stats.cancelled_running == 0
    finally:
        svc.shutdown(wait=True, cancel_pending=True)


def test_query_timeout_aborts_running_execution():
    started, release = threading.Event(), threading.Event()
    database = _gated_database(started, release)
    svc = DecompositionService(workers=2, engine=DecompositionEngine(cache=False))
    try:
        ticket = svc.submit_query(QUERY, database, "enumerate", timeout=0.05)
        assert started.wait(timeout=10)
        time.sleep(0.1)  # hold the gate past the execution deadline
        release.set()
        with pytest.raises(TimeoutExceeded):
            ticket.result(timeout=30)
        stats = svc.stats()
        assert stats.failed == 1
        assert stats.cancelled_running == 0  # deadline, not a cancel
    finally:
        svc.shutdown(wait=True, cancel_pending=True)


# --------------------------------------------------------------------------- #
# the SQL arm polls its deadline from a progress handler, on the executing thread
# --------------------------------------------------------------------------- #
def test_recycled_sql_execution_starts_no_watchdog_thread(monkeypatch):
    # An armed execution polls its deadline from SQLite's progress handler
    # on the executing thread, cold or recycled; cancellation is still
    # honoured at every step boundary.
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(
        threading.Thread, "start", lambda self: (started.append(self.name), start(self))[1]
    )
    engine, database = _engine_and_database()
    armed = threading.Event()  # what the service always passes
    cold = engine.execute(QUERY, database, "count", executor="sql", cancel_event=armed)
    assert cold.execution.statistics.bags_built > 0 and started == []
    for mode in ("count", "boolean"):
        warm = engine.execute(QUERY, database, mode, executor="sql", cancel_event=armed)
        assert warm.boolean == cold.boolean
        assert warm.execution.statistics.bags_built == 0
    assert warm.execution.statistics.bags_reused > 0 and started == []
    armed.set()
    with pytest.raises(TimeoutExceeded, match="cancelled"):
        engine.execute(QUERY, database, "count", executor="sql", cancel_event=armed)
    assert started == []


def test_sql_progress_handler_aborts_a_running_statement():
    # The deadline fires while one statement runs: SQLite's progress
    # handler, not a step boundary, stops it.  Leaving the guard removes the
    # handler, so the connection runs the cleanup that follows.
    connection = sqlite3.connect(":memory:")
    slow = (
        "WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n "
        "WHERE i < 100000000) SELECT COUNT(*) FROM n"
    )
    start = time.monotonic()
    with pytest.raises(sqlite3.OperationalError, match="interrupted"):
        with _InterruptGuard(connection, Deadline.arm(0.05)) as guard:
            connection.execute(slow).fetchone()
    assert guard.fired and guard.reason.startswith("query execution")
    assert time.monotonic() - start < 2.0
    assert connection.execute("SELECT 1").fetchone() == (1,)
    with _InterruptGuard(connection) as unarmed:  # installs nothing
        assert connection.execute("SELECT 2").fetchone() == (2,)
    assert not unarmed.fired
