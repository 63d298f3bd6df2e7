"""Unit tests for the fault-injection framework and resilience primitives."""

import pickle
import sqlite3
import threading
import time

import pytest

from repro import faults
from repro.exceptions import ServiceError
from repro.faults import CircuitBreaker, FaultInjector, FaultRule, RetryPolicy
from repro.hypergraph.cq import parse_conjunctive_query
from repro.pipeline.engine import DecompositionEngine
from repro.query import QueryEngine, random_database_for_query
from repro.query.database import Database
from repro.service import DecompositionService


# --------------------------------------------------------------------------- #
# FaultRule
# --------------------------------------------------------------------------- #
def test_rule_requires_an_action():
    with pytest.raises(ValueError):
        FaultRule(point="x")


def test_rule_rejects_bad_probability():
    with pytest.raises(ValueError):
        FaultRule(point="x", error=RuntimeError, probability=1.5)


def test_rule_glob_matching():
    rule = FaultRule(point="catalog.*", error=RuntimeError)
    assert rule.matches("catalog.get", {})
    assert rule.matches("catalog.put", {})
    assert not rule.matches("service.worker", {})


def test_rule_where_context_filter():
    rule = FaultRule(
        point="parallel.worker", error=RuntimeError, where={"slot": 0, "attempt": 0}
    )
    assert rule.matches("parallel.worker", {"slot": 0, "attempt": 0})
    assert not rule.matches("parallel.worker", {"slot": 1, "attempt": 0})
    assert not rule.matches("parallel.worker", {"slot": 0, "attempt": 1})
    assert not rule.matches("parallel.worker", {})


# --------------------------------------------------------------------------- #
# FaultInjector
# --------------------------------------------------------------------------- #
def test_injector_raises_fresh_twin_of_error_instance():
    template = RuntimeError("boom")
    injector = FaultInjector([FaultRule(point="p", error=template)])
    with pytest.raises(RuntimeError, match="boom") as first:
        injector.fire("p")
    with pytest.raises(RuntimeError, match="boom") as second:
        injector.fire("p")
    assert first.value is not template
    assert first.value is not second.value  # every firing gets its own twin


def test_injector_error_class_gets_descriptive_message():
    injector = FaultInjector([FaultRule(point="p", error=ValueError)])
    with pytest.raises(ValueError, match="injected fault at 'p'"):
        injector.fire("p")


def test_times_bounds_the_schedule():
    injector = FaultInjector([FaultRule(point="p", error=RuntimeError, times=2)])
    for _ in range(2):
        with pytest.raises(RuntimeError):
            injector.fire("p")
    injector.fire("p")  # schedule exhausted: recovery path runs
    assert injector.injected_counts() == {"p": 2}
    assert injector.point_hits() == {"p": 3}


def test_skip_lets_early_hits_pass():
    injector = FaultInjector([FaultRule(point="p", error=RuntimeError, skip=2, times=1)])
    injector.fire("p")
    injector.fire("p")
    with pytest.raises(RuntimeError):
        injector.fire("p")
    injector.fire("p")
    assert injector.total_injected() == 1


def test_probability_is_seed_deterministic():
    def decisions(seed):
        injector = FaultInjector(
            [FaultRule(point="p", error=RuntimeError, probability=0.5)], seed=seed
        )
        outcome = []
        for _ in range(32):
            try:
                injector.fire("p")
                outcome.append(False)
            except RuntimeError:
                outcome.append(True)
        return outcome

    assert decisions(7) == decisions(7)
    assert any(decisions(7)) and not all(decisions(7))
    assert decisions(7) != decisions(8)


def test_disabled_global_fire_is_a_no_op():
    assert faults.installed() is None
    faults.fire("anything.at.all", context=1)  # must not raise


def test_injected_context_manager_installs_and_restores():
    rule = FaultRule(point="p", error=RuntimeError, times=1)
    with faults.injected(rule) as injector:
        assert faults.installed() is injector
        with pytest.raises(RuntimeError):
            faults.fire("p")
        # Nested blocks restore the outer injector, not None.
        with faults.injected(FaultRule(point="q", error=ValueError)) as inner:
            assert faults.installed() is inner
        assert faults.installed() is injector
    assert faults.installed() is None


def test_spec_round_trip_is_picklable_and_equivalent():
    rules = (
        FaultRule(point="a.*", error=RuntimeError("x"), times=1),
        FaultRule(point="b", delay=0.001, probability=0.5, where={"slot": 1}),
    )
    injector = FaultInjector(rules, seed=42)
    spec = pickle.loads(pickle.dumps(injector.spec()))
    clone = FaultInjector.from_spec(spec)
    assert clone.seed == 42
    # Exception instances compare by identity, so compare rule fields.
    first, second = clone.rules
    assert (first.point, type(first.error), first.error.args, first.times) == (
        "a.*",
        RuntimeError,
        ("x",),
        1,
    )
    assert (second.point, second.delay, second.probability, second.where) == (
        "b",
        0.001,
        0.5,
        (("slot", 1),),
    )


def test_current_spec_none_when_disabled():
    assert faults.current_spec() is None
    faults.install_spec(None)  # no-op
    assert faults.installed() is None


# --------------------------------------------------------------------------- #
# RetryPolicy
# --------------------------------------------------------------------------- #
def test_retry_delays_are_capped_exponential_and_deterministic():
    policy = RetryPolicy(max_retries=4, backoff_base=0.1, backoff_cap=0.3, jitter=0.0)
    assert list(policy.delays()) == [0.1, 0.2, 0.3, 0.3]
    jittered = RetryPolicy(max_retries=3, backoff_base=0.1, backoff_cap=10.0, jitter=0.5)
    first, second = list(jittered.delays()), list(jittered.delays())
    assert first == second  # seeded jitter reproduces
    for attempt, delay in enumerate(first):
        base = 0.1 * 2**attempt
        assert base <= delay <= base * 1.5


def test_retry_call_retries_then_raises():
    policy = RetryPolicy(max_retries=2, backoff_base=0.0, jitter=0.0)
    attempts = []

    def flaky():
        attempts.append(1)
        raise OSError("transient")

    slept = []
    with pytest.raises(OSError):
        policy.call(flaky, retry_on=(OSError,), sleep=slept.append)
    assert len(attempts) == 3  # initial try + 2 retries
    assert len(slept) == 2


def test_retry_call_recovers_mid_sequence():
    policy = RetryPolicy(max_retries=3, backoff_base=0.0, jitter=0.0)
    state = {"left": 2}

    def flaky():
        if state["left"]:
            state["left"] -= 1
            raise OSError("transient")
        return "ok"

    assert policy.call(flaky, retry_on=(OSError,), sleep=lambda _t: None) == "ok"


# --------------------------------------------------------------------------- #
# CircuitBreaker
# --------------------------------------------------------------------------- #
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_breaker_opens_after_threshold_and_probes_after_cooldown():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, reset_interval=10.0, clock=clock)
    assert breaker.state == "closed"
    assert not breaker.record_failure()
    assert not breaker.record_failure()
    assert breaker.record_failure()  # third consecutive failure opens
    assert breaker.state == "open"
    assert not breaker.allow()  # cooldown not elapsed
    clock.now = 11.0
    assert breaker.allow()  # the half-open probe
    assert breaker.state == "half_open"
    assert not breaker.allow()  # concurrent callers refused mid-probe
    breaker.record_success()
    assert breaker.state == "closed"
    snapshot = breaker.as_dict()
    assert snapshot["opens"] == 1
    assert snapshot["probes"] == 1
    assert snapshot["reattaches"] == 1


def test_breaker_success_resets_consecutive_failures():
    breaker = CircuitBreaker(failure_threshold=2, reset_interval=10.0, clock=FakeClock())
    breaker.record_failure()
    breaker.record_success()
    assert not breaker.record_failure()  # count restarted
    assert breaker.state == "closed"


def test_breaker_half_open_failure_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_interval=5.0, clock=clock)
    breaker.record_failure()
    clock.now = 6.0
    assert breaker.allow()
    assert breaker.record_failure()  # probe failed: straight back to open
    assert breaker.state == "open"
    clock.now = 7.0
    assert not breaker.allow()  # cooldown was re-stamped at the failed probe


def test_breaker_force_probe_bypasses_cooldown():
    breaker = CircuitBreaker(failure_threshold=1, reset_interval=1e9, clock=FakeClock())
    breaker.trip()
    assert not breaker.allow()
    assert breaker.allow(force_probe=True)
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.as_dict()["reattaches"] == 1


def test_breaker_trip_is_idempotent():
    breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
    breaker.trip()
    breaker.trip()
    assert breaker.as_dict()["opens"] == 1
    assert breaker.state == "open"


# --------------------------------------------------------------------------- #
# SQL pushdown fault points (sqlgen.connect / sqlgen.exec)
# --------------------------------------------------------------------------- #
_SQL_QUERY = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z), t(z,x).")


def _sql_database():
    return random_database_for_query(
        _SQL_QUERY, domain_size=4, tuples_per_relation=12, seed=3
    )


def _fresh_engine():
    return QueryEngine(engine=DecompositionEngine(cache=False))


def test_sql_transient_exec_faults_are_retried_invisibly():
    # Every statement runs on an autocommit connection, so a failed one
    # changed nothing and the per-statement retry hides transient errors.
    database = _sql_database()
    expected = _fresh_engine().execute(_SQL_QUERY, database, "enumerate", executor="columnar")
    rule = FaultRule(
        point="sqlgen.exec", error=sqlite3.OperationalError("disk I/O error"), times=2
    )
    with faults.injected(rule) as injector:
        result = _fresh_engine().execute(_SQL_QUERY, database, "enumerate", executor="sql")
    assert injector.total_injected() == 2
    assert result.answers.as_dicts() == expected.answers.as_dicts()


def test_sql_transient_connect_fault_is_retried_invisibly():
    database = _sql_database()
    expected = _fresh_engine().execute(_SQL_QUERY, database, "count", executor="columnar")
    rule = FaultRule(
        point="sqlgen.connect",
        error=sqlite3.OperationalError("unable to open database file"),
        times=1,
    )
    with faults.injected(rule) as injector:
        result = _fresh_engine().execute(_SQL_QUERY, database, "count", executor="sql")
    assert injector.total_injected() == 1
    assert result.count == expected.count


def test_sql_exec_fault_outlasting_retries_surfaces():
    # Three attempts (initial + 2 retries) all injected: the error escapes.
    database = _sql_database()
    rule = FaultRule(
        point="sqlgen.exec", error=sqlite3.OperationalError("disk I/O error"), times=5
    )
    with faults.injected(rule) as injector:
        with pytest.raises(sqlite3.OperationalError, match="disk I/O error"):
            _fresh_engine().execute(_SQL_QUERY, database, "boolean", executor="sql")
    assert injector.injected_counts()["sqlgen.exec"] == 3


class _GatedRelation:
    """Relation double whose tuples block until released.

    ``Database.add`` only reads ``name``; the SQL store reads ``tuples``
    when it first bulk-loads the base table, which happens inside the
    running execution — so a service query against this relation is
    reliably *started* (and inside the SQL executor) while gated.
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


def test_sql_interrupt_during_query_counts_cancelled_running():
    # Cancelling a running SQL execution goes through the connection's
    # interrupt handle and must book exactly one ``cancelled_running``.
    started, release = threading.Event(), threading.Event()
    real = _sql_database()
    database = Database()
    database.add(_GatedRelation(real.get("r"), started, release))
    for name in ("s", "t"):
        database.add(real.get(name))
    svc = DecompositionService(workers=2, engine=DecompositionEngine(cache=False))
    try:
        ticket = svc.submit_query(_SQL_QUERY, database, "enumerate", executor="sql")
        assert started.wait(timeout=10)  # execution is inside the bulk load
        assert ticket.cancel() is True
        release.set()  # the executor resumes, then sees the event and aborts
        with pytest.raises(ServiceError):
            ticket.result(timeout=30)
        deadline = time.monotonic() + 10
        while svc.stats().cancelled == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        stats = svc.stats()
        assert stats.cancelled == 1
        assert stats.cancelled_running == 1  # aborted mid-execution, not queued
        # The store stays usable: the same service keeps answering afterwards.
        again = svc.submit_query(_SQL_QUERY, real, "boolean", executor="sql")
        assert again.result(timeout=30).boolean in (True, False)
    finally:
        svc.shutdown(wait=True, cancel_pending=True)
