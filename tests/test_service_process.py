"""Tests for the process-backed serving backend.

Worker processes are forked at service construction, so test decomposers
must be registered *before* the service is built — the children inherit the
registry through the fork.  Cross-process signalling goes through the
filesystem (``tmp_path`` marker files), never through in-memory events.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.core.base import Decomposer, SearchContext
from repro.decomp import validate_hd
from repro.exceptions import ServiceError
from repro.hypergraph import generators
from repro.hypergraph.cq import parse_conjunctive_query
from repro.pipeline.engine import DecompositionEngine
from repro.pipeline.registry import registry
from repro.query import random_database_for_query
from repro.service import DecompositionService
from oracles.eager import evaluate_eager


@pytest.fixture
def service():
    svc = DecompositionService(backend="process", workers=2)
    yield svc
    svc.shutdown(wait=True, cancel_pending=True)


class _SpinDecomposer(Decomposer):
    """Test double: marks a file, then spins until cancelled."""

    name = "spin-test"

    def __init__(self, signal_path="", timeout=None, **engine_options):
        super().__init__(timeout=timeout, **engine_options)
        self.signal_path = signal_path

    def _run(self, context: SearchContext):
        Path(self.signal_path).touch()
        while True:
            time.sleep(0.005)
            context.force_timeout_check()  # raises once the ring is written


class _ExplodingDecomposer(Decomposer):
    """Test double: fails with a builtin exception inside the worker."""

    name = "explode-test"

    def __init__(self, timeout=None, **engine_options):
        super().__init__(timeout=timeout, **engine_options)

    def _run(self, context: SearchContext):
        raise ValueError("worker exploded")


@pytest.fixture
def spin_algorithm():
    registry.register(
        "spin-test", factory=lambda **options: _SpinDecomposer(**options)
    )
    try:
        yield
    finally:
        registry.unregister("spin-test")


@pytest.fixture
def explode_algorithm():
    registry.register(
        "explode-test", factory=lambda **options: _ExplodingDecomposer(**options)
    )
    try:
        yield
    finally:
        registry.unregister("explode-test")


def _wait_for(predicate, timeout=15.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


# --------------------------------------------------------------------------- #
# basic serving parity with the thread backend
# --------------------------------------------------------------------------- #
def test_process_backend_serves_decompositions(service, cycle10):
    result = service.submit(cycle10, 2).result(timeout=60)
    assert result.success
    assert result.decomposition.hypergraph is cycle10  # re-hosted on our instance
    validate_hd(result.decomposition)
    assert service.submit(cycle10, 1).result(timeout=60).success is False


def test_process_backend_memo_fast_path(service, cycle10):
    service.submit(cycle10, 2).result(timeout=60)
    second = service.submit(cycle10, 2)
    assert second.done()
    stats = service.stats()
    assert stats.fast_path_hits >= 1
    assert stats.computations_by_kind.get("decompose") == 1


def test_process_backend_query_modes_agree(service):
    query = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z), t(z,x).")
    database = random_database_for_query(query, domain_size=6, tuples_per_relation=30)
    enum = service.submit_query(query, database, "enumerate").result(timeout=60)
    boolean = service.submit_query(query, database, "boolean").result(timeout=60)
    count = service.submit_query(query, database, "count").result(timeout=60)
    reference = evaluate_eager(query, database)
    assert enum.answers.as_dicts() == reference.as_dicts()
    assert count.count == len(reference)
    assert boolean.boolean == (len(reference) > 0)


def test_process_backend_rejects_object_valued_options(service, cycle10):
    from repro.core.hybrid import EdgeCountMetric

    with pytest.raises(ServiceError):
        service.submit(cycle10, 2, algorithm="hybrid", metric=EdgeCountMetric())


def test_parallel_algorithm_needs_no_backend_option(service, cycle10):
    # Service workers are daemonic and may not fork; the parallel decomposer
    # notices that itself and runs the sequential search there, so the ticket
    # resolves exactly as algorithm="hybrid" would.
    hard = generators.with_chords(generators.cycle(20), 3, seed=2)
    for hypergraph, k in ((cycle10, 2), (cycle10, 1), (hard, 2)):
        parallel = service.submit(hypergraph, k, algorithm="parallel", num_workers=2)
        hybrid = service.submit(hypergraph, k, algorithm="hybrid")
        parallel, hybrid = parallel.result(timeout=60), hybrid.result(timeout=60)
        assert parallel.success is hybrid.success and not parallel.timed_out
        if parallel.success:
            validate_hd(parallel.decomposition)
            assert parallel.decomposition.width <= k
        # The very same search: one delegated root, not one per partition.
        assert parallel.statistics.labels_tried == hybrid.statistics.labels_tried
        assert parallel.statistics.subproblems_delegated == 1


def test_health_reports_process_backend(service, cycle10):
    service.submit(cycle10, 2).result(timeout=60)
    stats = service.stats()
    assert stats.health["backend"] == "process"
    assert stats.health["workers_total"] == 2
    assert stats.health["workers_alive"] == 2
    snapshot = stats.health["process_backend"]
    assert len(snapshot["workers"]) == 2
    assert all(w["alive"] for w in snapshot["workers"])
    assert snapshot["respawns"] == 0
    assert sum(w["dispatched"] for w in snapshot["workers"]) >= 1


# --------------------------------------------------------------------------- #
# cache-affinity routing
# --------------------------------------------------------------------------- #
def _dispatched(service):
    snapshot = service._process_backend.snapshot()
    return [w["dispatched"] for w in snapshot["workers"]]


def test_same_key_routes_to_same_slot(service, cycle10):
    service.submit(cycle10, 2).result(timeout=60)
    first = _dispatched(service)
    assert sum(first) == 1
    slot = first.index(1)
    for _ in range(3):
        service._results.clear()  # defeat the memo: force a fresh dispatch
        service.submit(cycle10, 2).result(timeout=60)
    after = _dispatched(service)
    assert after[slot] == 4
    assert sum(after) == 4  # nothing ever landed on the other slot


def test_distinct_keys_can_use_both_slots(service):
    # Distinct admission keys hash independently; with enough keys both
    # slots must see traffic (19 keys all colliding would mean the hash is
    # broken).
    for n in range(4, 23):
        service.submit(generators.cycle(n), 2).result(timeout=60)
    counts = _dispatched(service)
    assert sum(counts) == 19
    assert all(count > 0 for count in counts)


def test_affinity_survives_worker_respawn(service, cycle10):
    service.submit(cycle10, 2).result(timeout=60)
    slot = _dispatched(service).index(1)
    backend = service._process_backend
    backend._slots[slot].process.terminate()
    _wait_for(
        lambda: backend.snapshot()["respawns"] >= 1
        and all(w["alive"] for w in backend.snapshot()["workers"]),
        message="worker respawn",
    )
    service._results.clear()
    result = service.submit(cycle10, 2).result(timeout=60)
    assert result.success
    after = _dispatched(service)
    assert after[slot] == 2  # same key, same slot, fresh process
    assert service.stats().health["process_worker_respawns"] >= 1


# --------------------------------------------------------------------------- #
# cancellation and worker failure
# --------------------------------------------------------------------------- #
def test_cancel_aborts_running_worker_task(spin_algorithm, tmp_path, cycle6):
    signal = tmp_path / "spinning"
    svc = DecompositionService(backend="process", workers=2)
    try:
        ticket = svc.submit(
            cycle6, 2, algorithm="spin-test", signal_path=str(signal)
        )
        _wait_for(signal.exists, message="worker to start spinning")
        assert ticket.cancel() is True
        with pytest.raises(ServiceError):
            ticket.result(timeout=30)
        _wait_for(
            lambda: svc.stats().cancelled == 1, message="cancel accounting"
        )
        stats = svc.stats()
        assert stats.cancelled == 1
        assert stats.cancelled_running == 1
        # The worker survived the abort (no respawn) and keeps serving.
        assert svc.submit(generators.cycle(6), 2).result(timeout=60).success
        assert svc._process_backend.snapshot()["respawns"] == 0
    finally:
        svc.shutdown(wait=True, cancel_pending=True)


@pytest.mark.parametrize(
    "backend",
    [
        "thread",
        pytest.param(
            "process",
            marks=pytest.mark.xfail(
                strict=True,
                reason="the dispatcher drains the priority queue into the slot's FIFO "
                "mp.Queue as fast as it can, so priorities only order what is still "
                "parent-side (ROADMAP item 2's dispatch rework)",
            ),
        ),
    ],
)
def test_interactive_query_overtakes_queued_enumerations(
    backend, spin_algorithm, tmp_path, cycle6
):
    query = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z), t(z,x).")
    databases = [
        random_database_for_query(query, domain_size=6, tuples_per_relation=30, seed=seed)
        for seed in range(7)
    ]
    signal = tmp_path / "spinning"
    svc = DecompositionService(backend=backend, workers=1)
    served = []
    complete = svc._complete

    def recording(task, result, error):
        if task.key[0] == "query":
            served.append(task.key[2])
        complete(task, result, error)

    svc._complete = recording
    try:
        # One busy worker, six enumerations waiting, then an interactive query.
        busy = svc.submit(cycle6, 2, algorithm="spin-test", signal_path=str(signal))
        _wait_for(signal.exists, message="worker to start spinning")
        tickets = [svc.submit_query(query, db, "enumerate") for db in databases[:6]]
        time.sleep(0.2)  # whatever moves queued work towards the worker has moved it
        tickets.append(svc.submit_query(query, databases[6], "boolean"))
        busy.cancel()
        for ticket in tickets:
            ticket.result(timeout=60)
        assert served == ["boolean"] + ["enumerate"] * 6
    finally:
        svc.shutdown(wait=True, cancel_pending=True)


def test_worker_error_reaches_caller_with_remote_traceback(
    explode_algorithm, cycle6
):
    svc = DecompositionService(backend="process", workers=2)
    try:
        ticket = svc.submit(cycle6, 2, algorithm="explode-test")
        with pytest.raises(ValueError, match="worker exploded") as excinfo:
            ticket.result(timeout=60)
        assert "worker exploded" in excinfo.value.remote_traceback
        assert "ValueError" in excinfo.value.remote_traceback
        assert svc.stats().failed == 1
    finally:
        svc.shutdown(wait=True, cancel_pending=True)


# --------------------------------------------------------------------------- #
# end-to-end smoke
# --------------------------------------------------------------------------- #
def test_selftest_passes_under_process_backend():
    from repro.serve import run_selftest

    ok, report, stats = run_selftest(
        workers=2, clients=2, repeats=1, backend="process"
    )
    assert ok, report
    assert "process" in report
