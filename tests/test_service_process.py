"""Tests for the process-backed serving backend.

Worker processes are forked at service construction, so test decomposers
must be registered *before* the service is built — the children inherit the
registry through the fork.  Cross-process signalling goes through the
filesystem (``tmp_path`` marker files), never through in-memory events.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.core import codec
from repro.core.base import Decomposer, SearchContext
from repro.decomp import validate_hd
from repro.exceptions import ServiceError
from repro.faults.supervise import encode_frame
from repro.hypergraph import generators
from repro.hypergraph.cq import parse_conjunctive_query
from repro.pipeline.registry import registry
from repro.query import random_database_for_query
from repro.query.workload import QueryEngine, query_signature
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

    def search(self, context: SearchContext):
        Path(self.signal_path).touch()
        while True:
            time.sleep(0.005)
            context.force_timeout_check()  # raises once the cancel word is written


class _ExplodingDecomposer(Decomposer):
    """Test double: fails with a builtin exception inside the worker."""

    name = "explode-test"

    def __init__(self, timeout=None, **engine_options):
        super().__init__(timeout=timeout, **engine_options)

    def search(self, context: SearchContext):
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


def test_process_backend_rejects_a_bad_option_at_submit(service, cycle6):
    # The parent builds the request's decomposer before anything ships, so
    # a misspelt option never reaches a worker.
    with pytest.raises(ServiceError, match="timout"):
        service.submit(cycle6, 2, timout=5)
    assert service.stats().submitted == 0


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
        # The very same search, not one per partition.
        assert parallel.statistics.labels_tried == hybrid.statistics.labels_tried
        assert parallel.statistics.subproblems_delegated == hybrid.statistics.subproblems_delegated


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
        # The worker reports the abort (not merely: the ticket is detached).
        _wait_for(ticket.done, timeout=1.0, message="the running task to abort")
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


@pytest.mark.parametrize("backend", ["thread", "process"])
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


def test_shutdown_with_cancel_aborts_a_spinning_task_on_every_slot(
    spin_algorithm, tmp_path, cycle6
):
    svc = DecompositionService(backend="process", workers=2)
    backend = svc._process_backend
    try:
        signals = {}
        for n in range(16):  # distinct keys until each slot holds one spinner
            path = tmp_path / f"spinning-{n}"
            ticket = svc.submit(cycle6, 2, algorithm="spin-test", signal_path=str(path))
            signals.setdefault(backend.slot_for(ticket.key), path)
            if len(signals) == 2:
                break
        assert len(signals) == 2
        for path in signals.values():
            _wait_for(path.exists, message="both workers to start spinning")
        assert backend.snapshot()["outstanding"] == 2
    finally:
        started = time.monotonic()
        svc.shutdown(wait=True, cancel_pending=True)
        elapsed = time.monotonic() - started
    assert elapsed < 5.0
    assert backend.snapshot()["respawns"] == 0  # aborted, not terminated
    assert not any(worker.is_alive() for worker in svc._workers)


# --------------------------------------------------------------------------- #
# one worker loop: threads, priorities, supervision, hygiene
# --------------------------------------------------------------------------- #
def test_process_backend_adds_one_thread_per_worker_and_nothing_else(cycle10):
    before = set(threading.enumerate())
    svc = DecompositionService(backend="process", workers=2)
    try:
        assert svc.submit(cycle10, 2).result(timeout=60).success
        added = [thread.name for thread in set(threading.enumerate()) - before]
        assert sorted(added) == ["repro-service-0", "repro-service-1"]
    finally:
        svc.shutdown(wait=True)
    assert set(threading.enumerate()) <= before


def _encode_counter(monkeypatch):
    calls = []
    encode = codec.hypergraph_to_dict

    def counting(hypergraph):
        calls.append(hypergraph)
        return encode(hypergraph)

    monkeypatch.setattr(codec, "hypergraph_to_dict", counting)
    return calls


def test_hypergraph_is_encoded_once_per_worker_generation(monkeypatch, cycle10):
    encoded = _encode_counter(monkeypatch)
    svc = DecompositionService(backend="process", workers=1)
    backend = svc._process_backend
    try:
        for k in (1, 2, 3):  # a width search: one H, three keys
            svc.submit(cycle10, k).result(timeout=60)
        assert len(encoded) == 1
        backend._slots[0].process.terminate()
        _wait_for(lambda: backend.snapshot()["respawns"] == 1, message="worker respawn")
        assert svc.submit(cycle10, 4).result(timeout=60).success
        assert svc.submit(cycle10, 5).result(timeout=60).success
        assert len(encoded) == 2  # re-shipped to the fresh worker, once
    finally:
        svc.shutdown(wait=True)


def test_worker_killed_mid_request_is_retried_and_counted_once(monkeypatch, cycle10):
    encoded = _encode_counter(monkeypatch)
    svc = DecompositionService(backend="process", workers=2)
    backend = svc._process_backend
    try:
        # ``attempt=0``: the replacement forks with a fresh ``times`` budget
        # of its own, so the budget alone would kill every generation.
        rule = faults.FaultRule(
            point="service.process", kill=True, times=1, where={"attempt": 0}
        )
        with faults.injected(rule):
            ticket = svc.submit(cycle10, 2)
            result = ticket.result(timeout=60)
        assert result.success
        validate_hd(result.decomposition)
        stats = svc.stats()
        assert stats.computations_by_kind["decompose"] == 1  # once across the retry
        assert stats.failed == 0
        health = stats.health
        assert health["worker_crashes"] == health["worker_respawns"] == 1
        assert health["tasks_requeued"] == 1 and health["quarantined"] == 0
        assert health["process_worker_respawns"] == 1
        assert health["process_backend"]["respawns"] == 1
        slot = backend._slots[backend.slot_for(ticket.key)]
        assert slot.attempt == 1 and slot.alive()
        # The dead worker and its replacement each got the hypergraph shipped.
        assert len(encoded) == 2
        assert cycle10.canonical_hash() in slot.shipped_graphs
    finally:
        svc.shutdown(wait=True)


_FAT_QUERY = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z), t(z,x).")


def _fat_query_routed_to(service, target):
    """A never-shipped database whose request frame exceeds the 64 KiB pipe
    and whose ``count`` query the service routes to slot ``target``."""
    backend = service._process_backend
    configuration = service._resolve_query_engine().configuration
    rejected = []  # kept alive while searching: the admission key holds id(database)
    while True:
        database = random_database_for_query(
            _FAT_QUERY, domain_size=3000, tuples_per_relation=4000, seed=target
        )
        rejected.append(database)
        key = ("query", query_signature(_FAT_QUERY), "count", configuration)
        key += (id(database), None, "columnar")
        if backend.slot_for(key) == target:
            break
    _token, payload = backend._database_payload(database)  # encoded before any kill
    assert len(encode_frame(payload)) > 1 << 16
    return database, key, QueryEngine().execute(_FAT_QUERY, database, "count").count


def test_dead_worker_found_while_writing_a_frame_larger_than_the_pipe(service):
    # The parent keeps each request pipe's read end open, so killing a
    # reader gives its writer no EPIPE, only a pipe that stays full.
    backend = service._process_backend
    for target in (1, 0):
        database, key, expected = _fat_query_routed_to(service, target)
        respawns = backend.snapshot()["respawns"]
        os.kill(backend._slots[target].pid, signal.SIGKILL)
        ticket = service.submit_query(_FAT_QUERY, database, "count")
        assert ticket.key == key
        assert ticket.result(timeout=10).count == expected
        assert backend.snapshot()["respawns"] == respawns + 1
        assert service.stats().health["tasks_requeued"] >= 1
    assert service.stats().failed == 0


def test_counters_conserve_under_concurrent_submit_cancel_probe_and_stats():
    # More client threads and workers than cores, a short switch interval:
    # slot queues, slot locks and the cancel words under contention.
    svc = DecompositionService(backend="process", workers=4)
    outcomes, cancels = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:

        def client(n):
            for i in range(25):
                ticket = svc.submit(generators.cycle(4 + (7 * n + i) % 12), 2)
                if i % 5 == 0:
                    cancels.append(ticket.cancel())  # False: already served
                else:
                    outcomes.append(ticket.result(timeout=60).success)
                if i % 10 == 0:
                    assert svc.catalog_probe()  # a probe round trip between requests
                    svc.stats()

        clients = [threading.Thread(target=client, args=(n,)) for n in range(8)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(60)
        assert not any(thread.is_alive() for thread in clients)
    finally:
        sys.setswitchinterval(interval)
        svc.shutdown(wait=True)
    stats = svc.stats()
    assert len(outcomes) == 8 * 20 and all(outcomes)
    assert stats.submitted == 8 * 25 == stats.completed + stats.failed + stats.cancelled
    assert stats.failed == 0 and stats.cancelled == sum(cancels)
    assert stats.inflight == 0 and stats.queue_depth == 0
    assert stats.health["process_backend"]["respawns"] == 0


def _resources():
    return (
        len(os.listdir("/proc/self/fd")),
        threading.active_count(),
        len(mp.active_children()),
    )


def test_process_backend_service_leaves_no_descriptor_thread_or_child(cycle10):
    # multiprocessing's shared-memory heap (the cancel words) keeps its arena
    # once allocated: let a first service allocate it before measuring.
    DecompositionService(backend="process", workers=2).shutdown(wait=True)
    before = _resources()
    svc = DecompositionService(backend="process", workers=2)
    backend = svc._process_backend
    try:
        assert svc.submit(cycle10, 2).result(timeout=60).success
        # A respawn in each way a slot's thread can find one: at write time
        # with more than a pipe's worth pending, and idle.
        database, _key, expected = _fat_query_routed_to(svc, 0)
        backend._slots[0].process.kill()
        assert svc.submit_query(_FAT_QUERY, database, "count").result(timeout=10).count == expected
        backend._slots[1].process.kill()
        _wait_for(
            lambda: backend.snapshot()["respawns"] == 2
            and all(w["alive"] for w in backend.snapshot()["workers"]),
            message="worker respawns",
        )
        for n in range(4, 12):
            assert svc.submit(generators.cycle(n), 2).result(timeout=60).success
        assert all(count > 0 for count in _dispatched(svc))
    finally:
        svc.shutdown(wait=True)
    # No gc.collect(): respawn and stop close what they opened themselves.
    assert _resources() == before


_KILLED_PARENT = """
import os, signal
from repro.service import DecompositionService
service = DecompositionService(backend="process", workers=2)
print(*(slot.pid for slot in service._process_backend._slots), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def test_workers_exit_when_their_parent_is_killed():
    # A SIGKILL skips the exit handler that ends daemonic children; the
    # workers must see EOF on their request pipes instead.
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    parent = subprocess.Popen(
        [sys.executable, "-c", _KILLED_PARENT], stdout=subprocess.PIPE, text=True, env=env
    )
    pids: list[int] = []
    try:
        # Read one line, not to EOF: the workers hold the pipe's write end.
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert parent.wait(timeout=60) == -signal.SIGKILL
        assert len(pids) == 2
        _wait_for(lambda: not any(map(_running, pids)), timeout=5, message="orphans to exit")
    finally:
        parent.stdout.close()
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


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
