"""Process-pool execution backend for :class:`DecompositionService`.

The thread backend shares one interpreter, so CPU-bound decomposition
search and query execution serialise on the GIL.  This backend is the thread
backend with a remote ``run``: the service's worker thread *i* drains slot
*i*'s priority queue exactly as a thread-backend worker drains the shared
one, and executes each task through :meth:`ProcessBackend.run` — one
synchronous round trip to a long-lived **worker process** holding its own
warm :class:`~repro.pipeline.engine.DecompositionEngine` /
:class:`~repro.query.workload.QueryEngine` / column-store state:

* **Cache-affinity routing** — the admission key (canonical hash, k,
  configuration for decompositions; query signature, mode, database for
  queries) hashes onto a fixed worker slot (:meth:`ProcessBackend.slot_for`,
  applied by the service at admission), so a worker's local memos and
  column stores stay hot for the keys it owns.  The shared L2 catalog
  remains the cross-process durability tier; the parent keeps the
  exactly-once in-flight dedup, so coalescing semantics are unchanged.
* **One duplex channel per slot** — a request pipe and a result pipe, each
  with a single writer (:mod:`repro.faults.supervise`), carrying one
  request frame and one reply frame per task.  A slot is handed its next
  task only when it is idle, so the service's priorities hold here as they
  do on the thread backend.
* **Shipped-once payloads** — hypergraphs and databases cross the
  boundary through :mod:`repro.core.codec` exactly once per worker slot
  (tracked per slot in ``shipped_*`` sets, and encoded only then);
  requests reference them by canonical hash / token, so a fat instance is
  not re-pickled per request.
* **Cancellation side-channel** — each slot owns one shared cancel *word*.
  While it waits for the reply, the slot's thread stores the request's
  sequence number there once the task's cancel event is set; the worker's
  cancel view (``word == my sequence number``) is what the decomposition
  search and the columnar executor poll.  ``ServiceTicket.cancel()`` and
  ``shutdown(cancel_pending=True)`` on a running request therefore abort
  it promptly in this backend too.
* **Crash supervision** — a worker process that dies — idle, mid-request,
  or before it has read its request — is respawned on the same slot
  (affinity routing is stable across respawns) with fresh pipes and an
  empty ship ledger; :meth:`ProcessBackend.run` then raises
  :class:`WorkerDied` and the task takes the service's existing requeue /
  quarantine path.  The liveness rule and the respawn mechanics are
  :mod:`repro.faults.supervise`'s (which also says why not a shared queue).

Lock ordering: a slot's lock serialises the conversations on its pipes and
is held for a whole round trip; the backend lock only guards the database
tokens and the moments a slot's ``Process`` handle is replaced, and is
never held while taking another lock.  The service lock is never taken here.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import select
import threading
import traceback
import weakref
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import count

from .. import faults
from ..catalog import CatalogStats
from ..core import codec
from ..exceptions import ParseError, ServiceError
from ..faults.supervise import WorkerProcess, encode_frame, poll, read_frame, write_frame
from ..pipeline.engine import DecompositionEngine
from ..pipeline.registry import registry
from ..query.plan import AnswerMode
from ..query.workload import QueryEngine

__all__ = ["ProcessBackend", "WorkerDied"]

#: How long a slot's thread waits on its pipes (or, idle, on its queue)
#: before it forwards a cancellation and sweeps for a dead worker; bounds
#: cancel and crash-detection latency.
POLL_INTERVAL = 0.05


class WorkerDied(ServiceError):
    """The slot's worker process died with a request outstanding (it has
    been respawned; the request is the service's to requeue)."""


@dataclass(slots=True)
class _Request:
    """A prepared process-boundary request (parent side).

    ``payload`` is the codec request dict, ``decode`` the codec function
    turning the worker's answer payload into the caller-facing result.
    ``graph_key`` / ``hypergraph`` and ``db_token`` / ``db_payload`` carry the
    ship-once-per-slot attachments; the hypergraph is encoded only when a
    slot's ship ledger misses it.
    """

    payload: dict
    decode: Callable
    graph_key: str | None = None
    hypergraph: object = None
    db_token: str | None = None
    db_payload: dict | None = None


class _WordCancel:
    """Worker-side ``is_set`` view over the slot's shared cancel word."""

    __slots__ = ("word", "seq")

    def __init__(self, word, seq: int) -> None:
        self.word = word
        self.seq = seq

    def is_set(self) -> bool:
        return self.word.value == self.seq


# --------------------------------------------------------------------------- #
# worker process
# --------------------------------------------------------------------------- #
def _worker_meta(engine):
    cache = engine.cache.statistics
    catalog = engine.catalog
    return {
        "engine_cache": {"hits": cache.hits, "misses": cache.misses},
        "catalog": catalog.stats().as_dict() if catalog is not None else None,
    }


def _run_request(request: dict, engine, query_engine, graphs, databases, cancel):
    decoded = codec.service_request_from_dict(request)
    if decoded.KIND == "decompose":
        graph = graphs.get(decoded.hypergraph)
        if graph is None:
            raise ServiceError(
                f"hypergraph {decoded.hypergraph!r} was never shipped to this worker"
            )
        decomposer = registry.build(decoded.algorithm, timeout=decoded.timeout, **decoded.options)
        result = engine.decompose(decomposer, graph, decoded.k, cancel_event=cancel)
        return codec.decomposition_answer_to_dict(result)
    database = databases.get(decoded.database)
    if database is None:
        raise ServiceError(f"database {decoded.database!r} was never shipped to this worker")
    mode = AnswerMode.coerce(decoded.mode)
    result = query_engine.execute(
        decoded.query,
        database,
        mode,
        executor=decoded.executor,
        cancel_event=cancel,
        timeout=decoded.timeout,
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
    request_fd: int,
    result_fd: int,
    cancel_word,
) -> None:
    """Long-lived worker: warm engines, one reply frame per request frame.

    The worker owns a private engine stack (result cache, plan cache,
    column stores) plus its own handle on the shared L2 catalog; every
    request carries the parent's fault spec so chaos schedules behave
    identically across the boundary.  Both pipe ends ride across the fork
    as raw file descriptors, so the backend requires the ``fork`` start
    method.  The other inherited pipe ends are closed before this runs
    (:class:`~repro.faults.supervise.WorkerProcess`), so the parent is the
    request pipe's only writer and a parent that dies without stopping the
    worker is EOF here.
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
    # Under fork the child inherits the parent's installed injector; start
    # the fingerprint from it so only a genuinely *changed* spec re-installs
    # (a re-install resets per-rule ``times`` budgets).
    spec = faults.current_spec()
    installed_fingerprint = repr(spec) if spec is not None else None

    try:
        # ``None`` is the parent's stop frame.
        while (message := read_frame(request_fd)) is not None:
            if message["request"] is None:  # a catalog probe
                catalog = engine.catalog
                ok = catalog.probe() if catalog is not None else True
                write_frame(result_fd, ("ok", ok, _worker_meta(engine)))
                continue

            spec = message["spec"]
            fingerprint = repr(spec) if spec is not None else None
            if fingerprint != installed_fingerprint:
                if spec is None:
                    faults.uninstall()
                else:
                    faults.install_spec(spec)
                installed_fingerprint = fingerprint

            try:
                for graph_key, payload in message["graphs"].items():
                    graphs[graph_key] = codec.hypergraph_from_dict(payload)
                for token, payload in message["databases"].items():
                    databases[token] = codec.database_from_dict(payload)
                # The chaos point of this backend: a ``kill`` rule takes the
                # whole worker down with the request in hand and exercises
                # the respawn + re-ship + requeue path.
                faults.fire("service.process", slot=slot, attempt=attempt)
                status, payload = "ok", _run_request(
                    message["request"],
                    engine,
                    query_engine,
                    graphs,
                    databases,
                    _WordCancel(cancel_word, message["seq"]),
                )
            except BaseException as exc:
                status, payload = "error", codec.error_to_dict(exc, traceback.format_exc())
            write_frame(result_fd, (status, payload, _worker_meta(engine)))
    except (EOFError, BrokenPipeError):
        pass  # the parent is gone: nobody is left to ask or to answer
    finally:
        if engine.catalog is not None:
            engine.catalog.close()


# --------------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------------- #
class _Slot(WorkerProcess):
    """A supervised worker plus what the service hangs on its slot."""

    def __init__(self, context, index: int, spawn) -> None:
        super().__init__(context, index, spawn)
        #: Serialises the conversations on this slot's pipes: one request
        #: (or probe) round trip at a time, never across a respawn or stop.
        self.lock = threading.Lock()
        #: The worker aborts the request whose sequence number stands here.
        #: A plain word, no lock: nothing a dying worker could hold on to.
        self.cancel_word = context.RawValue("q", 0)
        self.dispatched = 0
        self.completed = 0
        self.meta: dict | None = None

    def _open_pipe(self) -> None:
        """... and the request direction: a pipe nobody has written to, and
        an empty ship ledger (both go with the worker they served)."""
        super()._open_pipe()
        self.request_rfd, self.request_wfd = os.pipe()
        # The parent must never block in a write: see ProcessBackend._exchange.
        os.set_blocking(self.request_wfd, False)
        self.shipped_graphs: set[str] = set()
        self.shipped_dbs: set[str] = set()
        self.fds += (self.request_rfd, self.request_wfd)

    def _close_pipe(self) -> None:
        super()._close_pipe()
        os.close(self.request_rfd)
        os.close(self.request_wfd)

    def _own_fds(self) -> tuple[int, ...]:
        """... and the request pipe's read end."""
        return (self.result_wfd, self.request_rfd)


class ProcessBackend:
    """The worker processes, their channels, and their supervision."""

    def __init__(self, service, num_workers: int) -> None:
        self.num_workers = num_workers
        catalog = getattr(service.engine, "catalog", None)
        self._config = {
            "algorithm": service.algorithm,
            "timeout": service.default_timeout,
            "options": dict(service.algorithm_options),
            "catalog_path": str(catalog.path) if catalog is not None else None,
        }
        # The pipes ride across the fork as raw file descriptors, so the
        # backend is pinned to the fork start method (the repo targets
        # Linux, where it is also the default).
        self._ctx = mp.get_context("fork")
        self._lock = threading.Lock()
        self._seq = count(1)
        self._db_tokens: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._db_counter = count(1)

        self._slots = [_Slot(self._ctx, i, self._spawn) for i in range(num_workers)]
        for slot in self._slots:
            slot.start()

    def _spawn(self, slot: _Slot) -> dict:
        return {
            "target": _worker_main,
            "args": (
                slot.index,
                slot.attempt,
                self._config,
                slot.request_rfd,
                slot.result_wfd,
                slot.cancel_word,
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
        decode = partial(codec.decomposition_answer_from_dict, hypergraph)
        return _Request(payload, decode, graph_key=graph_key, hypergraph=hypergraph)

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
        return _Request(
            payload, codec.query_answer_from_dict, db_token=token, db_payload=db_payload
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
    # execution (runs on the slot's own service worker thread)
    # ------------------------------------------------------------------ #
    def run(self, index: int, task):
        """Execute ``task`` on slot ``index``'s worker: one round trip.

        The remote counterpart of ``task.run(task.cancel_event)``: returns
        the decoded answer, raises the worker's exception (with its
        ``remote_traceback``), or raises :class:`WorkerDied` once a dead
        worker has been replaced.
        """
        slot = self._slots[index]
        request = task.request
        with slot.lock:
            message = {
                "seq": next(self._seq),
                "spec": faults.current_spec(),
                "request": request.payload,
                "graphs": {},
                "databases": {},
            }
            if request.graph_key is not None and request.graph_key not in slot.shipped_graphs:
                message["graphs"][request.graph_key] = codec.hypergraph_to_dict(
                    request.hypergraph
                )
                slot.shipped_graphs.add(request.graph_key)
            if request.db_token is not None and request.db_token not in slot.shipped_dbs:
                message["databases"][request.db_token] = request.db_payload
                slot.shipped_dbs.add(request.db_token)
            slot.dispatched += 1
            status, payload = self._exchange(slot, message, task.cancel_event)
            slot.completed += 1
        if status == "error":
            raise codec.error_from_dict(payload)
        try:
            return request.decode(payload)
        except Exception as exc:
            raise ServiceError("failed to decode a worker answer payload") from exc

    def _exchange(self, slot: _Slot, message: dict, cancel_event=None) -> tuple:
        """Send one frame, wait for the one reply (caller holds ``slot.lock``).

        The write is non-blocking.  A dead reader does not turn a blocking
        ``os.write`` of a frame larger than the pipe into ``EPIPE``: the
        parent holds the pipe's read end itself, so the write would wait
        forever on a pipe nobody drains.
        """
        unsent = memoryview(encode_frame(message))
        while True:
            if cancel_event is not None and cancel_event.is_set():
                slot.cancel_word.value = message["seq"]
            if unsent:
                try:
                    unsent = unsent[os.write(slot.request_wfd, unsent) :]
                    continue
                except BlockingIOError:  # pipe full: wait, but not past a dead reader
                    select.select([], [slot.request_wfd], [], POLL_INTERVAL)
            elif received := poll([slot], POLL_INTERVAL):
                status, payload, slot.meta = received[0][1]
                return status, payload
            if slot.crashed():
                exit_code = slot.process.exitcode
                with self._lock:
                    slot.respawn()
                raise WorkerDied(f"service worker process died (exit code {exit_code})")

    def sweep(self, index: int) -> None:
        """Replace slot ``index``'s worker if it died idle (nothing to requeue)."""
        slot = self._slots[index]
        with slot.lock:
            if slot.process is not None and slot.crashed():
                with self._lock:
                    slot.respawn()

    # ------------------------------------------------------------------ #
    # health / introspection
    # ------------------------------------------------------------------ #
    @property
    def respawns(self) -> int:
        """Replacement workers started so far (each bumps its slot's attempt)."""
        return sum(slot.attempt for slot in self._slots)

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
                "outstanding": sum(1 for slot in self._slots if slot.lock.locked()),
            }

    def merged_catalog_stats(self, parent_stats) -> "CatalogStats":
        """Parent handle traffic + the latest snapshot of every worker's."""
        merged = CatalogStats()
        if parent_stats is not None:
            merged.merge(parent_stats)
        for slot in self._slots:
            stats = (slot.meta or {}).get("catalog")
            if stats:
                merged.merge(CatalogStats.from_dict(stats))
        return merged

    def broadcast_probe(self) -> bool:
        """Ask every live worker to probe its catalog handle.

        An open worker-side circuit breaker only re-attaches when probed;
        the service's ``catalog_probe()`` fans out here so operator probes
        reach worker handles too.  Each probe is a round trip of its own
        between two of the slot's requests.  Returns True iff every live
        worker probed successfully.
        """
        ok = True
        for slot in self._slots:
            with slot.lock:
                if not slot.alive():
                    continue
                try:
                    _status, probed = self._exchange(
                        slot, {"seq": next(self._seq), "request": None}
                    )
                except WorkerDied:
                    probed = False
            ok = ok and probed
        return ok

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Stop the worker processes (idempotent).  The service has joined
        its worker threads, so every slot is idle."""
        for slot in self._slots:
            with slot.lock:
                if slot.process is not None:
                    os.write(slot.request_wfd, encode_frame(None))
        for slot in self._slots:
            with slot.lock, self._lock:
                if slot.process is not None:
                    slot.stop(grace=5.0)
