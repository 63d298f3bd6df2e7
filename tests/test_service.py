"""Tests for the concurrent serving layer (:mod:`repro.service`)."""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.core.base import Decomposer, SearchContext
from repro.decomp import DecompositionNode, validate_hd
from repro.exceptions import ServiceError, TimeoutExceeded
from repro.hypergraph import generators
from repro.hypergraph.cq import parse_conjunctive_query
from repro.pipeline.engine import DecompositionEngine
from repro.pipeline.registry import registry
from repro.query import random_database_for_query
from repro.service import (
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    DecompositionService,
)
from oracles.eager import evaluate_eager


@pytest.fixture
def service():
    svc = DecompositionService(workers=4, engine=DecompositionEngine())
    yield svc
    svc.shutdown(wait=True, cancel_pending=True)


class _BlockingDecomposer(Decomposer):
    """Test double: blocks on a gate, honouring cancellation, then succeeds."""

    name = "blocking-test"

    def __init__(self, gate, log, timeout=None, tag="", **engine_options):
        super().__init__(timeout=timeout, **engine_options)
        self.gate = gate
        self.log = log
        self.tag = tag

    def search(self, context: SearchContext):
        while not self.gate.wait(0.005):
            context.force_timeout_check()  # raises on cancel or deadline
        self.log.append(self.tag)
        from repro.core.detk import DetKDecomposer

        return DetKDecomposer().search(context)


@pytest.fixture
def blocking_algorithm():
    """Registers the blocking decomposer; yields (gate, completion log)."""
    gate = threading.Event()
    log: list[str] = []
    registry.register(
        "blocking-test",
        factory=lambda **options: _BlockingDecomposer(gate, log, **options),
    )
    try:
        yield gate, log
    finally:
        gate.set()
        registry.unregister("blocking-test")


# --------------------------------------------------------------------------- #
# basic serving behaviour
# --------------------------------------------------------------------------- #
def test_submit_returns_valid_decomposition(service, cycle10):
    result = service.submit(cycle10, 2).result(timeout=30)
    assert result.success
    assert result.decomposition.hypergraph is cycle10
    validate_hd(result.decomposition)


def test_negative_answer_served(service, cycle10):
    assert service.submit(cycle10, 1).result(timeout=30).success is False


def test_repeat_submission_hits_fast_path(service, cycle10):
    first = service.submit(cycle10, 2)
    first.result(timeout=30)
    second = service.submit(cycle10, 2)
    assert second.done()  # served from the completed-result memo at submit
    assert second.result().success
    stats = service.stats()
    assert stats.fast_path_hits >= 1
    assert stats.computations_by_kind.get("decompose") == 1


def test_memoised_results_share_one_frozen_tree(service, cycle6):
    first = service.submit(cycle6, 2).result(timeout=30)
    second = service.submit(cycle6, 2).result(timeout=30)
    assert second is first
    root = second.decomposition.root
    with pytest.raises(dataclasses.FrozenInstanceError):
        root.children = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        root.bag = frozenset()
    assert len(first.decomposition) == 4
    validate_hd(first.decomposition)


def test_memoised_results_cannot_be_reassigned(service, cycle6):
    first = service.submit(cycle6, 2).result(timeout=30)
    second = service.submit(cycle6, 2).result(timeout=30)
    assert second is first
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.decomposition.root = DecompositionNode(bag=frozenset(), cover=frozenset())
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.decomposition = None
    third = service.submit(cycle6, 2).result(timeout=30)
    assert len(second.decomposition) == len(third.decomposition) == 4


def test_object_valued_options_are_never_shared(service, cycle10):
    # cache_key() collapses object values to their type name, so two
    # differently-parameterized metric instances would collide; the service
    # must bypass dedup/memoization for such requests.
    from repro.core.hybrid import EdgeCountMetric

    first = service.submit(cycle10, 2, algorithm="hybrid", metric=EdgeCountMetric())
    second = service.submit(cycle10, 2, algorithm="hybrid", metric=EdgeCountMetric())
    assert first.result(timeout=30).success and second.result(timeout=30).success
    stats = service.stats()
    assert stats.computations_by_kind["decompose"] == 2  # no sharing
    assert stats.coalesced == 0 and stats.fast_path_hits == 0


def test_submit_query_modes_agree(service):
    query = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z), t(z,x).")
    database = random_database_for_query(query, domain_size=6, tuples_per_relation=30)
    enum = service.submit_query(query, database, "enumerate").result(timeout=30)
    boolean = service.submit_query(query, database, "boolean").result(timeout=30)
    count = service.submit_query(query, database, "count").result(timeout=30)
    reference = evaluate_eager(query, database)
    assert enum.answers.as_dicts() == reference.as_dicts()
    assert count.count == len(reference)
    assert boolean.boolean == (len(reference) > 0)


def test_query_priorities_by_mode(service):
    query = parse_conjunctive_query("ans(x) :- r(x,y), s(y,x).")
    database = random_database_for_query(query)
    bulk = service.submit_query(query, database, "enumerate")
    urgent = service.submit_query(query, database, "boolean")
    assert bulk._task.priority == PRIORITY_BULK
    assert urgent._task.priority == PRIORITY_INTERACTIVE
    bulk.result(timeout=30), urgent.result(timeout=30)


def test_submit_after_shutdown_raises(cycle6):
    svc = DecompositionService(workers=1, engine=DecompositionEngine())
    svc.shutdown(wait=True)
    with pytest.raises(ServiceError):
        svc.submit(cycle6, 2)


# --------------------------------------------------------------------------- #
# dedup, scheduling, cancellation, timeouts
# --------------------------------------------------------------------------- #
def test_concurrent_duplicates_computed_exactly_once(blocking_algorithm, cycle6):
    gate, log = blocking_algorithm
    svc = DecompositionService(
        workers=4, engine=DecompositionEngine(cache=False), algorithm="blocking-test"
    )
    try:
        tickets = [svc.submit(cycle6, 2) for _ in range(12)]
        assert svc.stats().coalesced == 11
        gate.set()
        results = [t.result(timeout=30) for t in tickets]
        assert len(set(id(r) for r in results)) == 1  # one shared outcome
        assert results[0].success
        validate_hd(results[0].decomposition)
        assert len(log) == 1  # the search ran exactly once
        assert svc.stats().computations == 1
    finally:
        svc.shutdown(wait=True, cancel_pending=True)


def test_priority_queue_orders_pending_work(blocking_algorithm, monkeypatch):
    # Behind a blocker on the single worker, a BOOLEAN query submitted after
    # an ENUMERATE one still runs first: interactive before bulk.
    from repro.query import QueryEngine

    gate, log = blocking_algorithm
    execute = QueryEngine.execute

    def logged(self, query, database, mode, **options):
        log.append(mode.value)
        return execute(self, query, database, mode, **options)

    monkeypatch.setattr(QueryEngine, "execute", logged)
    query = parse_conjunctive_query("ans(x) :- r(x,y), s(y,x).")
    database = random_database_for_query(query)
    svc = DecompositionService(workers=1, engine=DecompositionEngine(cache=False))
    try:
        blocker = svc.submit(generators.cycle(4), 2, algorithm="blocking-test", tag="blocker")
        # Wait until the single worker is busy on the blocker so the next
        # submissions queue up behind it.
        deadline = time.monotonic() + 5
        while svc.stats().computations == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        bulk = svc.submit_query(query, database, "enumerate")
        urgent = svc.submit_query(query, database, "boolean")
        assert svc.stats().queue_depth == 2
        gate.set()
        assert blocker.result(timeout=30).success
        assert urgent.result(timeout=30).boolean == (bulk.result(timeout=30).count > 0)
        assert log == ["blocker", "boolean", "enumerate"]
    finally:
        svc.shutdown(wait=True, cancel_pending=True)


def test_cancel_aborts_running_search(blocking_algorithm, cycle6):
    gate, log = blocking_algorithm
    svc = DecompositionService(
        workers=2, engine=DecompositionEngine(cache=False), algorithm="blocking-test"
    )
    try:
        ticket = svc.submit(cycle6, 2)
        deadline = time.monotonic() + 5
        while svc.stats().computations == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert ticket.cancel() is True
        with pytest.raises(ServiceError):
            ticket.result(timeout=30)
        # The worker must come back without the gate ever opening: the
        # cancellation event aborted the blocked search.
        deadline = time.monotonic() + 10
        while svc.stats().cancelled == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        stats = svc.stats()
        assert stats.cancelled == 1
        assert stats.cancelled_running == 1  # aborted mid-search, not queued
        assert stats.as_dict()["cancelled_running"] == 1
        assert log == []  # the search never completed
        # The service keeps serving afterwards (fresh key, real algorithm).
        result = svc.submit(generators.cycle(6), 2, algorithm="detk").result(timeout=30)
        assert result.success
    finally:
        svc.shutdown(wait=True, cancel_pending=True)


def test_cancel_while_owner_blocks_in_result_raises(blocking_algorithm, cycle6):
    # Cancelling from another thread while the owner is blocked in result()
    # must surface ServiceError, never a bare None.
    gate, _log = blocking_algorithm
    svc = DecompositionService(
        workers=1, engine=DecompositionEngine(cache=False), algorithm="blocking-test"
    )
    try:
        ticket = svc.submit(cycle6, 2)
        outcome: list[object] = []

        def owner():
            try:
                outcome.append(ticket.result(timeout=30))
            except ServiceError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=owner)
        thread.start()
        time.sleep(0.05)  # let the owner block on the wait
        assert ticket.cancel() is True
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], ServiceError)
    finally:
        gate.set()
        svc.shutdown(wait=True, cancel_pending=True)


def test_cancel_of_one_coalesced_ticket_keeps_others_running(
    blocking_algorithm, cycle6
):
    gate, log = blocking_algorithm
    svc = DecompositionService(
        workers=2, engine=DecompositionEngine(cache=False), algorithm="blocking-test"
    )
    try:
        first = svc.submit(cycle6, 2)
        second = svc.submit(cycle6, 2)
        assert first.cancel() is True
        gate.set()
        assert second.result(timeout=30).success  # unaffected by the cancel
        with pytest.raises(ServiceError):
            first.result()
    finally:
        svc.shutdown(wait=True, cancel_pending=True)


def test_algorithm_override_does_not_inherit_foreign_options(cycle6):
    # threshold is a hybrid option; overriding the algorithm per request
    # must not forward it to a decomposer that cannot accept it.
    svc = DecompositionService(
        workers=1, engine=DecompositionEngine(), algorithm="hybrid", threshold=0.5
    )
    try:
        assert svc.submit(cycle6, 2).result(timeout=30).success  # hybrid w/ option
        assert svc.submit(cycle6, 2, algorithm="detk").result(timeout=30).success
    finally:
        svc.shutdown(wait=True, cancel_pending=True)


def test_bad_default_algorithm_configuration_fails_at_construction():
    # Checked once by building the default decomposer, not on every request.
    with pytest.raises(ServiceError, match="timout"):
        DecompositionService(workers=1, timout=5)
    with pytest.raises(ServiceError, match="no-such-algorithm"):
        DecompositionService(workers=1, algorithm="no-such-algorithm")


def test_bad_request_option_fails_at_submit(service, cycle6):
    # The request's decomposer is built at submit, so a misspelt option is
    # a typed error there, not a ticket that fails later.
    with pytest.raises(ServiceError, match="timout"):
        service.submit(cycle6, 2, timout=5)
    with pytest.raises(ServiceError, match="no-such-algorithm"):
        service.submit(cycle6, 2, algorithm="no-such-algorithm")
    assert service.stats().submitted == 0


def test_an_option_spelled_at_its_default_shares_the_computation(service):
    # Requests are keyed by the built decomposer's cache_key(), as the
    # engine's cache is: the hybrid's default threshold spelled out is the
    # same configuration.
    c8 = generators.cycle(8)
    assert service.submit(c8, 2).result(timeout=30).success
    again = service.submit(c8, 2, threshold=400.0)
    assert again.done() and again.result().success
    assert service.stats().computations_by_kind == {"decompose": 1}


def test_service_level_timeout_option_is_accepted():
    # timeout is a natural Decomposer option: passing it at service level
    # (or inside per-request **options) must become the default request
    # timeout instead of colliding with the explicit keyword downstream.
    svc = DecompositionService(
        workers=1, engine=DecompositionEngine(), timeout=0.05
    )
    try:
        assert svc.default_timeout == 0.05
        hard = svc.submit(generators.clique(11), 5)  # inherits the default
        assert hard.result(timeout=30).timed_out
        easy = svc.submit(generators.cycle(6), 2, timeout=30.0)  # override
        assert easy.result(timeout=30).success
        via_options = svc.submit(generators.cycle(8), 2, **{"timeout": 30.0})
        assert via_options.result(timeout=30).success
    finally:
        svc.shutdown(wait=True, cancel_pending=True)


def test_per_request_timeout_times_out_and_is_not_memoized(service):
    hard = generators.clique(11)
    result = service.submit(hard, 5, timeout=0.05).result(timeout=30)
    assert result.timed_out
    # Timeouts are never memoized: resubmitting computes again.
    again = service.submit(hard, 5, timeout=0.05).result(timeout=30)
    assert again.timed_out
    assert service.stats().computations_by_kind["decompose"] == 2
    assert service.stats().fast_path_hits == 0


def test_ticket_wait_timeout_raises(blocking_algorithm, cycle6):
    gate, _log = blocking_algorithm
    svc = DecompositionService(
        workers=1, engine=DecompositionEngine(cache=False), algorithm="blocking-test"
    )
    try:
        ticket = svc.submit(cycle6, 2)
        with pytest.raises(TimeoutExceeded):
            ticket.result(timeout=0.05)
        gate.set()
        assert ticket.result(timeout=30).success  # still resolvable afterwards
    finally:
        svc.shutdown(wait=True, cancel_pending=True)


def test_shutdown_cancel_pending_fails_queued_requests(blocking_algorithm, cycle6):
    gate, _log = blocking_algorithm
    svc = DecompositionService(
        workers=1, engine=DecompositionEngine(cache=False), algorithm="blocking-test"
    )
    running = svc.submit(cycle6, 2)
    queued = svc.submit(generators.cycle(8), 2)
    deadline = time.monotonic() + 5
    while svc.stats().computations == 0 and time.monotonic() < deadline:
        time.sleep(0.005)
    svc.shutdown(wait=False, cancel_pending=True)
    with pytest.raises(ServiceError):
        queued.result(timeout=30)
    # The running task was asked to cancel; its ticket resolves either way
    # (to a timed-out result) instead of deadlocking.
    outcome = running.result(timeout=30)
    assert outcome.timed_out
    for worker in svc._workers:
        worker.join(timeout=30)
        assert not worker.is_alive()


def test_shutdown_wait_after_nonwaiting_shutdown_joins_workers(
    blocking_algorithm, cycle6
):
    gate, _log = blocking_algorithm
    svc = DecompositionService(
        workers=2, engine=DecompositionEngine(cache=False), algorithm="blocking-test"
    )
    ticket = svc.submit(cycle6, 2)
    svc.shutdown(wait=False)
    gate.set()
    # A later waiting shutdown (e.g. the implicit one from a with-block)
    # must still block until the pool has wound down.
    svc.shutdown(wait=True)
    for worker in svc._workers:
        assert not worker.is_alive()
    assert ticket.result(timeout=30).success


def test_stats_exposes_search_counters():
    # The stats snapshot aggregates the kernel counters of every computed
    # decomposition; cached/coalesced requests add nothing.  A fresh
    # hypergraph guarantees an incidence-mask table build is recorded.
    svc = DecompositionService(workers=1, engine=DecompositionEngine())
    try:
        assert svc.stats().search_counters == {}
        result = svc.submit(generators.cycle(6), 2).result(timeout=30)
        assert result.success
        counters = svc.stats().search_counters
        assert counters["labels_tried"] > 0
        assert counters["mask_table_builds"] > 0
        # A repeat of the same request is memo-served: no new kernel work.
        svc.submit(generators.cycle(6), 2).result(timeout=30)
        assert svc.stats().search_counters == counters
        assert svc.stats().as_dict()["search_counters"] == counters
    finally:
        svc.shutdown(wait=True, cancel_pending=True)


# --------------------------------------------------------------------------- #
# the full concurrent stress scenario (>= 8 client threads, mixed workload)
# --------------------------------------------------------------------------- #
def test_concurrent_stress_selftest():
    """The serve selftest is the stress test: 8 clients, duplicate-heavy
    mixed decomposition + boolean/count/enumerate workload, asserting
    validated certificates, exactly-once computation for coalesced keys and
    bounded (deadlock-free) shutdown."""
    from repro.serve import run_selftest

    ok, report, stats = run_selftest(clients=8, repeats=3)
    assert ok, report
    assert stats["coalesced"] + stats["fast_path_hits"] > 0


# --------------------------------------------------------------------------- #
# resilience: traceback fidelity, worker supervision, poison quarantine
# --------------------------------------------------------------------------- #
def _worker_frame_names(exc):
    import traceback

    return [frame.name for frame in traceback.extract_tb(exc.__traceback__)]


def test_failed_ticket_reraises_with_worker_traceback(service):
    def explode(_cancel_event):
        raise RuntimeError("worker-side failure")

    ticket = service._admit(("test-explode",), explode, 0.0, memoize=False, priority=1)
    with pytest.raises(RuntimeError, match="worker-side failure") as info:
        ticket.result(timeout=10)
    # The frames that actually failed — the worker's _execute/explode — must
    # be visible from the caller, not just the result() re-raise frame.
    assert "explode" in _worker_frame_names(info.value)
    assert "_execute" in _worker_frame_names(info.value)


def test_coalesced_waiters_do_not_accumulate_reraise_frames(service, blocking_algorithm):
    gate, _log = blocking_algorithm

    def explode(_cancel_event):
        raise RuntimeError("shared failure")

    ticket = service._admit(("test-shared",), explode, 0.0, memoize=False, priority=1)
    with pytest.raises(RuntimeError) as first:
        ticket.result(timeout=10)
    with pytest.raises(RuntimeError) as second:
        ticket.result(timeout=10)
    gate.set()
    # Same instance, but each raise restores the pinned worker traceback
    # instead of stacking result() frames onto the shared exception.
    assert first.value is second.value
    assert _worker_frame_names(first.value) == _worker_frame_names(second.value)
    assert _worker_frame_names(second.value).count("result") <= 1


def test_worker_crash_is_requeued_and_answer_still_served(cycle6):
    from repro import faults

    # The first dispatch of the task crashes its worker (an exception on the
    # service.worker fault point escapes _execute); the supervisor requeues
    # the task and revives the worker, and the retry answers correctly.
    rule = faults.FaultRule(
        point="service.worker", error=RuntimeError("dispatch bug"), where={"attempt": 0},
        times=1,
    )
    with DecompositionService(workers=2, engine=DecompositionEngine()) as service:
        with faults.injected(rule):
            result = service.submit(cycle6, 2).result(timeout=60)
            assert result.success
        stats = service.stats()
        assert stats.health["worker_crashes"] == 1
        assert stats.health["worker_respawns"] == 1
        assert stats.health["tasks_requeued"] == 1
        assert stats.health["quarantined"] == 0
        assert stats.health["workers_alive"] == stats.health["workers_total"] == 2
        # The crash retry re-ran the same logical computation: counted once.
        assert stats.computations == 1


def test_poison_task_is_quarantined_with_descriptive_error(cycle6):
    from repro import faults

    # Every dispatch of this task crashes its worker: after three crashes
    # the key is finalized as failed instead of retried forever.
    rule = faults.FaultRule(point="service.worker", error=RuntimeError("poison"))
    with DecompositionService(workers=2, engine=DecompositionEngine()) as service:
        with faults.injected(rule):
            ticket = service.submit(cycle6, 2)
            with pytest.raises(ServiceError, match="quarantined after 3") as info:
                ticket.result(timeout=60)
            assert isinstance(info.value.__cause__, RuntimeError)
        stats = service.stats()
        assert stats.health["quarantined"] == 1
        assert stats.health["worker_crashes"] == 3
        assert stats.health["tasks_requeued"] == 2
        assert stats.failed == 1
        # The pool survived the crashes at full strength.
        assert stats.health["workers_alive"] == 2


def test_health_section_shape(service):
    health = service.stats().health
    assert health["workers_total"] == 4
    assert health["workers_alive"] == 4
    for counter in (
        "worker_crashes",
        "worker_respawns",
        "tasks_requeued",
        "quarantined",
        "process_worker_respawns",
    ):
        assert health[counter] == 0
    assert health["catalog_circuit"] is None  # no catalog attached
    assert "health" in service.stats().as_dict()
