"""Process-pool execution backend for :class:`DecompositionService`.

The thread backend shares one interpreter, so CPU-bound decomposition
search and query execution serialise on the GIL.  This backend dispatches
admitted tasks to long-lived **worker processes**, each holding its own
warm :class:`~repro.pipeline.engine.DecompositionEngine` /
:class:`~repro.query.workload.QueryEngine` / column-store state:

* **Cache-affinity routing** — the admission key (canonical hash, k,
  configuration for decompositions; query signature, mode, database for
  queries) hashes onto a fixed worker slot, so a worker's local memos and
  column stores stay hot for the keys it owns.  The shared L2 catalog
  remains the cross-process durability tier; the parent keeps the
  exactly-once in-flight dedup, so coalescing semantics are unchanged.
* **Batch admission** — a dispatcher thread drains the service's priority
  queue in small batches per dispatch, amortising one IPC round trip over
  several requests.  Priority order holds among what is still in that queue
  (the batch is whatever is ready right now); the dispatcher does not wait
  for a slot to be idle, so a request already in a slot's FIFO queue is not
  overtaken by a more urgent one submitted later.
* **Shipped-once payloads** — hypergraphs and databases cross the
  boundary through :mod:`repro.core.codec` exactly once per worker slot
  (tracked per slot in ``shipped_*`` sets); requests reference them by
  canonical hash / token, so a fat instance is not re-pickled per request.
* **Cancellation side-channel** — each slot owns a small shared ring of
  request sequence numbers; the worker folds it (via
  :class:`EitherEvent`) with the pool-wide stop and
  abort events into the per-request cancel signal that the decomposition
  search and the columnar executor poll.  ``ServiceTicket.cancel()`` on a
  running request therefore aborts it promptly in this backend too.
* **Crash supervision** — a worker process that dies without reporting is
  respawned on the same slot (affinity routing is stable across respawns);
  its orphaned tasks go through the service's existing requeue /
  quarantine path, and the fresh worker gets the payloads re-shipped.
  The result pipes, the liveness rule and the respawn mechanics are
  :mod:`repro.faults.supervise`'s (which also says why not a shared queue).

Lock ordering: the backend never takes the service lock while holding its
own lock (the service may call into the backend under *its* lock — e.g.
``_cancel_ticket`` → :meth:`ProcessBackend.request_cancel`).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as pyqueue
import threading
import time
import traceback
import weakref
import zlib
from itertools import count

from .. import faults
from ..catalog import CatalogStats
from ..core import codec
from ..exceptions import ParseError, ServiceError
from ..faults.supervise import WorkerProcess, poll, write_frame
from ..pipeline.engine import DecompositionEngine
from ..pipeline.registry import registry
from ..query.plan import AnswerMode
from ..query.workload import QueryAnswer, QueryEngine

__all__ = ["ProcessBackend"]

#: Maximum tasks drained per dispatch: large enough to amortise the IPC
#: round trip.
_BATCH_LIMIT = 4
#: Entries in the per-slot cancel ring.  Cancels are rare; the ring only
#: needs to cover the requests concurrently visible to one worker.
_CANCEL_RING = 8
#: Collector poll interval; also bounds crash-detection latency.
_POLL_INTERVAL = 0.05


class _Request:
    """A prepared process-boundary request (parent side).

    ``payload`` is the codec request dict, ``decode`` turns the worker's
    answer payload back into the caller-facing result.  ``graph_key`` /
    ``graph_payload`` and ``db_token`` / ``db_payload`` carry the
    ship-once-per-slot attachments.
    """

    __slots__ = (
        "payload",
        "decode",
        "graph_key",
        "graph_payload",
        "db_token",
        "db_payload",
    )

    def __init__(
        self,
        payload: dict,
        decode,
        graph_key: str | None = None,
        graph_payload: dict | None = None,
        db_token: str | None = None,
        db_payload: dict | None = None,
    ) -> None:
        self.payload = payload
        self.decode = decode
        self.graph_key = graph_key
        self.graph_payload = graph_payload
        self.db_token = db_token
        self.db_payload = db_payload


class EitherEvent:
    """Read-only OR view over two events (only ``is_set`` is consulted)."""

    __slots__ = ("first", "second")

    def __init__(self, first, second) -> None:
        self.first = first
        self.second = second

    def is_set(self) -> bool:
        return self.first.is_set() or self.second.is_set()


class _RingCancel:
    """Worker-side ``is_set`` view over the slot's shared cancel ring."""

    __slots__ = ("ring", "seq")

    def __init__(self, ring, seq: int) -> None:
        self.ring = ring
        self.seq = seq

    def is_set(self) -> bool:
        return self.seq in self.ring[:]


# --------------------------------------------------------------------------- #
# worker process
# --------------------------------------------------------------------------- #
def _worker_meta(slot, attempt, served, engine):
    cache = engine.cache
    hits = misses = 0
    if cache is not None:
        for shard in cache.shard_statistics():
            hits += shard.hits
            misses += shard.misses
    catalog = engine.catalog
    return {
        "pid": os.getpid(),
        "slot": slot,
        "attempt": attempt,
        "served": served,
        "engine_cache": {"hits": hits, "misses": misses},
        "catalog": catalog.stats().as_dict() if catalog is not None else None,
        "faults_injected": (
            faults.installed().injected_counts() if faults.installed() else {}
        ),
    }


def _run_request(request: dict, engine, query_engine, graphs, databases, cancel):
    decoded = codec.service_request_from_dict(request)
    if decoded["kind"] == "decompose":
        graph = graphs.get(decoded["hypergraph"])
        if graph is None:
            raise ServiceError(
                f"hypergraph {decoded['hypergraph']!r} was never shipped to this worker"
            )
        decomposer = registry.build(
            decoded["algorithm"], timeout=decoded["timeout"], **decoded["options"]
        )
        result = engine.decompose(
            decomposer, graph, decoded["k"], cancel_event=cancel
        )
        return codec.decomposition_answer_to_dict(result)
    database = databases.get(decoded["database"])
    if database is None:
        raise ServiceError(
            f"database {decoded['database']!r} was never shipped to this worker"
        )
    mode = AnswerMode.coerce(decoded["mode"])
    result = query_engine.execute(
        decoded["query"],
        database,
        mode,
        executor=decoded["executor"],
        cancel_event=cancel,
        timeout=decoded["timeout"],
    )
    return codec.query_answer_to_dict(
        mode=mode.value,
        answers=result.answers,
        boolean=result.boolean,
        count=result.count,
        width=result.width,
        plan_cached=result.plan_cached,
        plan_seconds=result.plan_seconds,
        execution_seconds=result.execution_seconds,
        statistics=result.execution.statistics.as_dict(),
    )


def _worker_main(
    slot: int,
    attempt: int,
    config: dict,
    request_queue,
    result_fd: int,
    stop_event,
    abort_event,
    cancel_ring,
) -> None:
    """Long-lived worker: warm engines, drain batches, ship answers back.

    The worker owns a private engine stack (result cache, plan cache,
    column stores) plus its own handle on the shared L2 catalog; batch
    messages carry the parent's fault spec so chaos schedules behave
    identically across the boundary.  Answers go back over this slot's
    private result pipe (``result_fd`` rides across the fork), so the
    backend requires the ``fork`` start method.
    """
    engine = DecompositionEngine(catalog=config["catalog_path"])
    query_engine = QueryEngine(
        algorithm=config["algorithm"],
        engine=engine,
        timeout=config["timeout"],
        **config["options"],
    )
    graphs: dict[str, object] = {}
    databases: dict[str, object] = {}
    served = 0
    # Under fork the child inherits the parent's installed injector; start
    # the fingerprint from it so only a genuinely *changed* spec re-installs
    # (a re-install resets per-rule ``times`` budgets).
    spec = faults.current_spec()
    installed_fingerprint = repr(spec) if spec is not None else None

    def meta():
        return _worker_meta(slot, attempt, served, engine)

    try:
        while True:
            try:
                message = request_queue.get(timeout=0.2)
            except pyqueue.Empty:
                if stop_event.is_set():
                    return
                continue
            if message is None:
                return
            if message["type"] == "probe":
                catalog = engine.catalog
                ok = catalog.probe() if catalog is not None else True
                write_frame(
                    result_fd, ("probe", slot, message["probe_id"], ok, None, meta())
                )
                continue

            spec = message.get("spec")
            fingerprint = repr(spec) if spec is not None else None
            if fingerprint != installed_fingerprint:
                if spec is None:
                    faults.uninstall()
                else:
                    faults.install_spec(spec)
                installed_fingerprint = fingerprint

            items = message["items"]
            try:
                for graph_key, payload in message["graphs"].items():
                    if graph_key not in graphs:
                        graphs[graph_key] = codec.hypergraph_from_dict(payload)
                for token, payload in message["databases"].items():
                    if token not in databases:
                        databases[token] = codec.database_from_dict(payload)
                # The chaos point of this backend: fired once per batch, so
                # a ``kill`` rule takes the whole worker down mid-flight and
                # exercises the respawn + re-ship + requeue path.
                faults.fire("service.process", slot=slot, attempt=attempt)
            except BaseException as exc:
                text = traceback.format_exc()
                for item in items:
                    write_frame(
                        result_fd,
                        (
                            "result",
                            slot,
                            item["seq"],
                            "error",
                            codec.error_to_dict(exc, text),
                            meta(),
                        ),
                    )
                continue
            for item in items:
                seq = item["seq"]
                cancel = EitherEvent(
                    EitherEvent(stop_event, abort_event), _RingCancel(cancel_ring, seq)
                )
                try:
                    status, payload = "ok", _run_request(
                        item["request"], engine, query_engine, graphs, databases, cancel
                    )
                except BaseException as exc:
                    status, payload = "error", codec.error_to_dict(
                        exc, traceback.format_exc()
                    )
                served += 1
                write_frame(result_fd, ("result", slot, seq, status, payload, meta()))
    finally:
        # The write-behind queue of this worker's catalog handle would be
        # dropped with the process; drain it so decided outcomes reach the
        # shared durable tier.
        if engine.catalog is not None:
            try:
                engine.catalog.flush()
                engine.catalog.close()
            except Exception:
                pass


# --------------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------------- #
class _Slot(WorkerProcess):
    """A supervised worker plus what the service hangs on its slot."""

    def __init__(self, context, index: int, spawn) -> None:
        super().__init__(context, index, spawn)
        self.dispatched = 0
        self.completed = 0
        self.meta: dict | None = None
        self.fresh_channels()

    def fresh_channels(self) -> None:
        """New request queue and cancel ring, and an empty ship ledger."""
        self.queue = self.context.Queue()
        self.ring = self.context.Array("q", [-1] * _CANCEL_RING)
        self.ring_cursor = 0
        self.shipped_graphs: set[str] = set()
        self.shipped_dbs: set[str] = set()


class ProcessBackend:
    """The process pool, its dispatcher/collector threads, and supervision."""

    def __init__(self, service, num_workers: int) -> None:
        for option, value in service.algorithm_options.items():
            if not isinstance(value, codec._SCALAR_TYPES):
                raise ServiceError(
                    f"service option {option!r} holds a non-scalar value of type "
                    f"{type(value).__name__}; the process backend only accepts "
                    "str/int/float/bool/None option values"
                )
        self._service = service
        self.num_workers = num_workers
        catalog = getattr(service.engine, "catalog", None)
        self._config = {
            "algorithm": service.algorithm,
            "timeout": service.default_timeout,
            "options": dict(service.algorithm_options),
            "catalog_path": str(catalog.path) if catalog is not None else None,
        }
        # Result pipes ride across the fork as raw file descriptors, so
        # the backend is pinned to the fork start method (the repo targets
        # Linux, where it is also the default).
        self._ctx = mp.get_context("fork")
        self._stop_event = self._ctx.Event()
        self._abort_event = self._ctx.Event()
        self._lock = threading.Lock()
        self._seq = count(1)
        self._outstanding: dict[int, object] = {}
        self._outstanding_slot: dict[int, int] = {}
        self._precancelled: set = set()
        self._probe_results: dict[str, bool | None] = {}
        self._db_tokens: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._db_counter = count(1)
        self._stopping = threading.Event()
        self._workers_stopped = False
        self.respawns = 0

        self._slots = [_Slot(self._ctx, i, self._spawn) for i in range(num_workers)]
        for slot in self._slots:
            slot.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch", daemon=True
        )
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-service-collect", daemon=True
        )
        self._dispatcher.start()
        self._collector.start()

    def _spawn(self, slot: _Slot) -> dict:
        return {
            "target": _worker_main,
            "args": (
                slot.index,
                slot.attempt,
                self._config,
                slot.queue,
                slot.result_wfd,
                self._stop_event,
                self._abort_event,
                slot.ring,
            ),
            "name": f"repro-service-worker-{slot.index}",
        }

    # ------------------------------------------------------------------ #
    # request preparation (runs on the submitting thread)
    # ------------------------------------------------------------------ #
    def decompose_request(
        self, hypergraph, algorithm: str, k: int, timeout: float | None, options: dict
    ) -> _Request:
        graph_key = hypergraph.canonical_hash()
        try:
            payload = codec.decompose_request_to_dict(
                canonical_hash=graph_key,
                k=k,
                algorithm=algorithm,
                timeout=timeout,
                options=options,
            )
        except ParseError as exc:
            raise ServiceError(str(exc)) from exc

        def decode(answer, _hypergraph=hypergraph):
            return codec.decomposition_answer_from_dict(_hypergraph, answer)

        return _Request(
            payload,
            decode,
            graph_key=graph_key,
            graph_payload=codec.hypergraph_to_dict(hypergraph),
        )

    def query_request(
        self,
        query,
        database,
        mode: AnswerMode,
        timeout: float | None,
        executor: str = "columnar",
    ) -> _Request:
        token, db_payload = self._database_payload(database)
        payload = codec.query_request_to_dict(
            query=query,
            mode=mode.value,
            database=token,
            timeout=timeout,
            executor=executor,
        )

        def decode(answer):
            fields = codec.query_answer_from_dict(answer)
            return QueryAnswer(
                mode=AnswerMode.coerce(fields["mode"]),
                answers=fields["answers"],
                boolean=fields["boolean"],
                count=fields["count"],
                width=fields["width"],
                plan_cached=fields["plan_cached"],
                plan_seconds=fields["plan_seconds"],
                execution_seconds=fields["execution_seconds"],
                statistics=fields["statistics"],
            )

        return _Request(
            payload, decode, db_token=token, db_payload=db_payload
        )

    def _database_payload(self, database) -> tuple[str, dict]:
        # Weakly keyed: tokens are unique counters, so a recycled id() can
        # never alias a previous database, and dead databases drop their
        # cached payloads with them.  Encoding happens once per database.
        with self._lock:
            entry = self._db_tokens.get(database)
            if entry is None:
                try:
                    payload = codec.database_to_dict(database)
                except ParseError as exc:
                    raise ServiceError(str(exc)) from exc
                entry = (f"db-{next(self._db_counter)}", payload)
                self._db_tokens[database] = entry
            return entry

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def slot_for(self, key: tuple) -> int:
        """Cache-affinity routing: one admission key, one worker slot."""
        return zlib.crc32(repr(key).encode("utf-8")) % self.num_workers

    # ------------------------------------------------------------------ #
    # dispatcher
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        service = self._service
        stopping = False
        while not stopping:
            batch = []
            _priority, _seq, task = service._queue.get()
            if task is None:
                stopping = True
            else:
                batch.append(task)
                # Batch admission: whatever else is ready right now (up to
                # the limit) rides the same IPC round trip.  The shutdown
                # sentinel sorts behind every real priority, so draining it
                # here means the queue was already empty of work.
                while len(batch) < _BATCH_LIMIT:
                    try:
                        _p, _s, extra = service._queue.get_nowait()
                    except pyqueue.Empty:
                        break
                    if extra is None:
                        stopping = True
                        break
                    batch.append(extra)
            if batch:
                self._dispatch(batch)

    def _dispatch(self, batch) -> None:
        service = self._service
        per_slot: dict[int, list] = {}
        for task in batch:
            with service._lock:
                if task.started or task.done.is_set():
                    continue  # stale queue entry from a priority escalation
                if task.cancelled:
                    service._finalize_locked(task, None, None)
                    continue
                task.started = True
                if not task.counted:
                    task.counted = True
                    service._computations += 1
                    kind = task.key[0]
                    service._computations_by_kind[kind] = (
                        service._computations_by_kind.get(kind, 0) + 1
                    )
            try:
                # Same dispatch-path fault point the thread workers fire, so
                # chaos schedules written for one backend hit the other.
                faults.fire("service.worker", kind=task.key[0], attempt=task.attempts)
            except BaseException as exc:
                service._supervise_crash(task, exc)
                continue
            per_slot.setdefault(self.slot_for(task.key), []).append(task)
        if not per_slot:
            return
        spec = faults.current_spec()
        with self._lock:
            for slot_index, tasks in per_slot.items():
                slot = self._slots[slot_index]
                items, graphs, dbs = [], {}, {}
                for task in tasks:
                    seq = next(self._seq)
                    task.proc_seq = seq
                    request = task.request
                    if (
                        request.graph_key is not None
                        and request.graph_key not in slot.shipped_graphs
                    ):
                        graphs[request.graph_key] = request.graph_payload
                        slot.shipped_graphs.add(request.graph_key)
                    if (
                        request.db_token is not None
                        and request.db_token not in slot.shipped_dbs
                    ):
                        dbs[request.db_token] = request.db_payload
                        slot.shipped_dbs.add(request.db_token)
                    self._outstanding[seq] = task
                    self._outstanding_slot[seq] = slot_index
                    slot.dispatched += 1
                    items.append({"seq": seq, "request": request.payload})
                    if task in self._precancelled:
                        # cancel() ran between admission and seq assignment;
                        # both paths hold this lock, so the ring write here
                        # closes the race.
                        self._precancelled.discard(task)
                        self._write_cancel_locked(slot, seq)
                slot.queue.put(
                    {
                        "type": "batch",
                        "spec": spec,
                        "items": items,
                        "graphs": graphs,
                        "databases": dbs,
                    }
                )

    # ------------------------------------------------------------------ #
    # collector
    # ------------------------------------------------------------------ #
    def _collect_loop(self) -> None:
        # The per-slot read fds are replaced only by ``_sweep_dead`` (which
        # runs on this thread) and closed only after this thread has been
        # joined, so polling them needs no locking.
        last_sweep = time.monotonic()
        while True:
            messages = [message for _slot, message in poll(self._slots, _POLL_INTERVAL)]
            now = time.monotonic()
            if not messages or now - last_sweep > _POLL_INTERVAL:
                last_sweep = now
                self._sweep_dead()
                if (
                    not messages
                    and self._stopping.is_set()
                    and not self._dispatcher.is_alive()
                ):
                    with self._lock:
                        idle = not self._outstanding
                    if idle:
                        return
            for message in messages:
                self._handle_message(message)

    def _handle_message(self, message) -> None:
        service = self._service
        kind, slot_index, ref, status, payload, meta = message
        if kind == "probe":
            with self._lock:
                self._slots[slot_index].meta = meta
                if ref in self._probe_results:
                    self._probe_results[ref] = bool(status)
            return
        with self._lock:
            task = self._outstanding.pop(ref, None)
            self._outstanding_slot.pop(ref, None)
            slot = self._slots[slot_index]
            slot.meta = meta
            if task is not None:
                slot.completed += 1
        if task is None:
            return  # stale twin from a slot that was respawned
        result = error = None
        if status == "ok":
            try:
                result = task.request.decode(payload)
            except Exception as exc:
                error = ServiceError("failed to decode a worker answer payload")
                error.__cause__ = exc
        else:
            error = codec.error_from_dict(payload)
        service._complete(task, result, error)

    def _sweep_dead(self) -> None:
        orphans = []
        stale_queues = []
        with self._lock:
            if self._workers_stopped:
                return
            for slot in self._slots:
                if not slot.crashed():
                    continue
                exit_code = slot.process.exitcode
                dead = [
                    seq
                    for seq, index in self._outstanding_slot.items()
                    if index == slot.index
                ]
                for seq in dead:
                    orphans.append((self._outstanding.pop(seq), exit_code))
                    del self._outstanding_slot[seq]
                # A worker that died parked inside ``queue.get()`` (e.g. a
                # SIGTERM, as opposed to the fault injector's controlled
                # ``os._exit`` mid-batch) takes the queue's reader lock to
                # the grave — a successor reading the same queue would
                # block forever.  Same story for the cancel-ring lock.
                # Respawned slots therefore get fresh primitives; pending
                # messages on the old queue are exactly the orphans being
                # requeued, so nothing is lost.  The fresh worker starts
                # with cold caches and no shipped payloads; the emptied ship
                # ledger makes the requeued tasks re-attach their
                # hypergraphs/databases.
                stale_queues.append(slot.queue)
                slot.fresh_channels()
                self.respawns += 1
                slot.respawn()
        for queue in stale_queues:
            queue.cancel_join_thread()
            queue.close()
        for task, exit_code in orphans:
            self._service._supervise_crash(
                task,
                ServiceError(f"service worker process died (exit code {exit_code})"),
            )

    # ------------------------------------------------------------------ #
    # cancellation
    # ------------------------------------------------------------------ #
    def _write_cancel_locked(self, slot: _Slot, seq: int) -> None:
        ring = slot.ring
        with ring.get_lock():
            ring[slot.ring_cursor] = seq
            slot.ring_cursor = (slot.ring_cursor + 1) % _CANCEL_RING

    def request_cancel(self, task) -> None:
        """Abort a dispatched task worker-side (caller holds the service lock).

        Writes the task's sequence number into its slot's cancel ring; the
        worker's per-request cancel view polls the ring, so the running
        search/execution raises at its next periodic check.
        """
        with self._lock:
            seq = task.proc_seq
            if seq is None:
                self._precancelled.add(task)
                return
            slot_index = self._outstanding_slot.get(seq)
            if slot_index is None:
                return
            self._write_cancel_locked(self._slots[slot_index], seq)

    # ------------------------------------------------------------------ #
    # health / introspection
    # ------------------------------------------------------------------ #
    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for slot in self._slots if slot.alive())

    def snapshot(self) -> dict:
        """JSON-friendly per-slot view (feeds ``stats().health``)."""
        with self._lock:
            return {
                "workers": [
                    {
                        "slot": slot.index,
                        "pid": slot.pid,
                        "alive": slot.alive(),
                        "attempt": slot.attempt,
                        "dispatched": slot.dispatched,
                        "completed": slot.completed,
                        "engine_cache": (slot.meta or {}).get("engine_cache"),
                    }
                    for slot in self._slots
                ],
                "respawns": self.respawns,
                "outstanding": len(self._outstanding),
            }

    def merged_catalog_stats(self, parent_stats) -> "CatalogStats":
        """Parent handle traffic + the latest snapshot of every worker's."""
        merged = CatalogStats()
        if parent_stats is not None:
            merged.merge(parent_stats)
        with self._lock:
            worker_stats = [
                (slot.meta or {}).get("catalog") for slot in self._slots
            ]
        for stats in worker_stats:
            if stats:
                merged.merge(CatalogStats(**stats))
        return merged

    def broadcast_probe(self, timeout: float = 10.0) -> bool:
        """Ask every live worker to probe its catalog handle.

        An open worker-side circuit breaker only re-attaches when probed;
        the service's ``catalog_probe()`` fans out here so operator probes
        reach worker handles too.  Returns True iff every live worker
        probed successfully.
        """
        with self._lock:
            probes: dict[str, None] = {}
            for slot in self._slots:
                if self._workers_stopped or not slot.alive():
                    continue
                probe_id = f"probe-{next(self._seq)}"
                self._probe_results[probe_id] = None
                probes[probe_id] = None
                slot.queue.put({"type": "probe", "probe_id": probe_id})
        deadline = time.monotonic() + timeout
        ok = True
        for probe_id in probes:
            while True:
                with self._lock:
                    outcome = self._probe_results.get(probe_id)
                if outcome is not None:
                    ok = ok and outcome
                    break
                if time.monotonic() > deadline:
                    ok = False
                    break
                time.sleep(0.02)
        with self._lock:
            for probe_id in probes:
                self._probe_results.pop(probe_id, None)
        return ok

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def abort_inflight(self) -> None:
        """Shutdown-with-cancel: every in-flight request aborts at its next
        periodic check (the abort event is folded into each cancel view)."""
        self._abort_event.set()

    def begin_shutdown(self) -> None:
        """Arm the collector's exit condition; the service has already posted
        the dispatcher's shutdown sentinel."""
        self._stopping.set()

    def join(self) -> None:
        """Wait for drain and stop the worker processes (idempotent)."""
        self._dispatcher.join()
        self._collector.join()
        self._stop_workers()

    def _stop_workers(self) -> None:
        with self._lock:
            if self._workers_stopped:
                return
            self._workers_stopped = True
            slots = list(self._slots)
        self._stop_event.set()
        for slot in slots:
            slot.queue.put(None)
        for slot in slots:
            slot.stop(grace=5.0)
            slot.queue.close()
            slot.queue.cancel_join_thread()
