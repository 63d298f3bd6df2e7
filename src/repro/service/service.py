"""A thread-safe serving layer over the decomposition pipeline and query engine.

:class:`DecompositionService` multiplexes many concurrent callers onto one
:class:`~repro.pipeline.engine.DecompositionEngine` and one
:class:`~repro.query.workload.QueryEngine`.  Three mechanisms turn the
single-caller library into something that can sit behind traffic:

* **Sharded caches** — the engine result cache, the compiled-plan cache and
  the per-database column stores are lock-striped
  (:class:`~repro.lru.ShardedLRU`), so concurrent cache hits on different
  keys never serialise on a global lock.  The service adds its own sharded
  memo of completed results for a submit-time fast path that bypasses the
  queue entirely.
* **In-flight deduplication** — concurrent requests for the same
  ``(canonical hash, k, Decomposer.cache_key())`` coalesce onto one
  computation: followers attach a ticket to the in-flight task and all
  tickets are released together when it completes.  Under duplicate-heavy
  traffic the expensive search runs exactly once per distinct key.
* **Priority scheduling** — requests drain through a bounded worker pool
  from a priority queue; interactive answers (boolean / count queries) are
  served ahead of full enumeration, with FIFO order within a priority
  class.  A worker takes the most urgent queued task each time it goes
  idle, on either backend.

Per-request timeouts ride on the engine's deadline machinery, and
cancellation reuses the cancellation-event plumbing of the searches
(:class:`~repro.core.base.SearchContext`): cancelling the last ticket of a
task sets its event and the running computation — decomposition search or
columnar query execution alike — aborts at its next periodic check.

Two execution backends share this front end and its worker loop:
``backend="thread"`` (the default) runs a task on the worker thread itself,
against one shared engine; with ``backend="process"`` worker thread *i*
hands the task to long-lived worker process *i* and waits for its answer
(cache-affinity routing picks *i* at admission; see
:mod:`repro.service.process_backend`), buying real multi-core scaling for
CPU-bound traffic.

Example::

    >>> from repro.hypergraph import generators
    >>> from repro.service import DecompositionService
    >>> with DecompositionService(workers=2) as service:
    ...     ticket = service.submit(generators.cycle(6), 2)
    ...     result = ticket.result()
    >>> result.success
    True
    >>> service.stats().completed
    1
"""

from __future__ import annotations

import queue as pyqueue
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import count

from .. import faults
from ..core.base import PRIMITIVE_OPTION_TYPES, DecompositionResult, SearchStatistics
from ..exceptions import QueryError, ServiceError, SolverError, TimeoutExceeded
from ..hypergraph import Hypergraph
from ..lru import ShardStats, ShardedLRU
from ..pipeline.engine import DecompositionEngine, default_engine
from ..pipeline.registry import registry
from ..query.plan import AnswerMode, check_executor
from ..query.workload import QueryEngine, QueryResult, query_signature
from .process_backend import POLL_INTERVAL, ProcessBackend, WorkerDied

__all__ = [
    "PRIORITY_INTERACTIVE",
    "PRIORITY_NORMAL",
    "PRIORITY_BULK",
    "ServiceStats",
    "ServiceTicket",
    "DecompositionService",
]

#: Scheduling classes: lower value drains first.  Boolean/count queries are
#: interactive (a client is waiting on a yes/no or a number), decomposition
#: decisions sit in the middle, full enumeration is bulk work.
PRIORITY_INTERACTIVE = 0
PRIORITY_NORMAL = 1
PRIORITY_BULK = 2

_SHUTDOWN_PRIORITY = 1 << 30

#: Capacity of the sharded completed-result memo (the submit-time fast path).
_RESULT_MEMO_ENTRIES = 4096
#: Most recent request latencies kept for the p50/p95 snapshot.
_LATENCY_WINDOW = 2048


class _Task:
    """One scheduled computation; possibly shared by many coalesced tickets."""

    __slots__ = (
        "key",
        "priority",
        "run",
        "memoize",
        "tickets",
        "done",
        "cancel_event",
        "cancelled",
        "started",
        "attempts",
        "counted",
        "result",
        "error",
        "error_tb",
        "request",
    )

    def __init__(self, key: tuple, priority: int, run, memoize: bool) -> None:
        self.key = key
        self.priority = priority
        self.run = run
        self.memoize = memoize
        #: Process backend: the prepared codec request (set at admission).
        self.request = None
        self.tickets: list[ServiceTicket] = []
        self.done = threading.Event()
        self.cancel_event = threading.Event()
        self.cancelled = False
        self.started = False
        #: Number of times this task crashed its worker (not counting
        #: ordinary failures, which finalize on the first delivery); the
        #: poison-quarantine threshold compares against it.
        self.attempts = 0
        #: Whether this task was already counted as a computation — crash
        #: retries re-run the same logical computation, so it counts once.
        self.counted = False
        self.result = None
        self.error: BaseException | None = None
        #: The worker-side traceback captured at finalize time.  Re-raising
        #: through :meth:`ServiceTicket.result` restores it on every raise,
        #: so coalesced waiters each see the pristine worker frames instead
        #: of an ever-growing chain of re-raise frames on the shared
        #: exception instance.
        self.error_tb = None


class ServiceTicket:
    """A future-like handle on one submitted request.

    Tickets attached to the same in-flight computation share its outcome;
    :meth:`result` blocks until the computation finishes (or the wait
    times out), :meth:`cancel` detaches this ticket — the underlying
    computation is only aborted once *every* attached ticket has cancelled,
    so one impatient caller never tears down work others still wait on.
    """

    __slots__ = ("_service", "_task", "submitted_at", "cancelled")

    def __init__(self, service: "DecompositionService", task: _Task, submitted_at: float) -> None:
        self._service = service
        self._task = task
        self.submitted_at = submitted_at
        self.cancelled = False

    @property
    def key(self) -> tuple:
        """The deduplication key this request was scheduled under."""
        return self._task.key

    def done(self) -> bool:
        """Whether the outcome is available (never blocks)."""
        return self._task.done.is_set()

    def result(self, timeout: float | None = None):
        """The request's outcome, waiting up to ``timeout`` seconds for it.

        Raises :class:`~repro.exceptions.TimeoutExceeded` if the wait (not
        the computation) times out, :class:`~repro.exceptions.ServiceError`
        if this ticket was cancelled, and re-raises the worker's exception
        if the computation itself failed — with the worker-side traceback
        restored, so the frames that actually failed are debuggable from
        the caller.  Like :meth:`concurrent.futures.Future.result`,
        coalesced tickets re-raise the *same* exception instance — don't
        mutate it (e.g. via ``add_note``) if other waiters may still
        observe it.
        """
        if self.cancelled:
            raise ServiceError("request was cancelled")
        if not self._task.done.wait(timeout):
            raise TimeoutExceeded("timed out waiting for the service result")
        if self.cancelled:
            # Cancelled by another thread while we were blocked waiting; a
            # cancelled-and-skipped task finalizes with result=None, so
            # returning would hand the caller nothing instead of the
            # documented error.
            raise ServiceError("request was cancelled")
        error = self._task.error
        if error is not None:
            # ``raise error`` alone would *append* this frame to the shared
            # instance's traceback on every coalesced waiter's call;
            # restoring the traceback captured at finalize time keeps each
            # raise anchored at the worker frames that actually failed.
            raise error.with_traceback(self._task.error_tb)
        return self._task.result

    def cancel(self) -> bool:
        """Detach from the computation; returns False if already finished.

        The computation's cancellation event is only set once no attached
        ticket remains.  A still-queued task is then dropped before it
        runs; a *running* task — decomposition search or query execution
        alike — aborts at its next periodic cancellation check (the
        columnar executor polls the event inside its semijoin/join
        kernels, mirroring the searches).  Under the process backend the
        signal reaches the worker through its slot's cancel word.  The
        two outcomes are distinguished in :meth:`DecompositionService.stats`:
        ``cancelled`` counts every cancelled ticket, ``cancelled_running``
        additionally counts the computations that were already executing
        when their last ticket cancelled.
        """
        return self._service._cancel_ticket(self)


def _build(algorithm: str, timeout: float | None, options: dict):
    """Build ``algorithm``'s decomposer; an unknown name or option is a :class:`ServiceError`."""
    try:
        return registry.build(algorithm, timeout=timeout, **options)
    except (TypeError, SolverError) as error:
        raise ServiceError(f"bad algorithm configuration: {error}") from None


def _percentile(samples: list[float], fraction: float) -> float:
    if not samples:
        return 0.0
    index = min(len(samples) - 1, int(fraction * (len(samples) - 1) + 0.5))
    return samples[index]


@dataclass
class ServiceStats:
    """A point-in-time snapshot of the service's serving behaviour: a copy of
    the service's one live record with the point-in-time fields filled in."""

    submitted: int = 0
    completed: int = 0
    computations: int = 0
    computations_by_kind: dict = field(default_factory=dict)
    coalesced: int = 0
    fast_path_hits: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Of the fully-cancelled computations, how many were already executing
    #: when their last ticket cancelled (aborted in flight via the
    #: cancellation event, not dropped from the queue).
    cancelled_running: int = 0
    queue_depth: int = 0
    inflight: int = 0
    workers: int = 0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    #: Aggregate of the decomposition searches' kernel counters (labels
    #: tried, splitter/bitset memo hits, mask-table builds, ...) summed over
    #: every computation this service actually ran.
    search_counters: dict = field(default_factory=dict)
    result_memo: ShardStats = field(default_factory=ShardStats)
    engine_cache: ShardStats = field(default_factory=ShardStats)
    engine_cache_shards: list[ShardStats] = field(default_factory=list)
    #: Traffic of the engine's durable L2 tier (``None`` without a catalog):
    #: a :class:`repro.catalog.CatalogStats` with hit / miss /
    #: validate-reject / store counters and the memory-fallback flag.
    catalog: object | None = None
    #: The resilience snapshot (PR 8): worker liveness, crash / respawn /
    #: requeue / quarantine counters, process-backend respawns, and the
    #: catalog circuit breaker's state — everything the chaos suite asserts
    #: recovery on.
    health: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """A JSON-friendly rendering (used by ``python -m repro.serve``)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "computations": self.computations,
            "computations_by_kind": dict(self.computations_by_kind),
            "coalesced": self.coalesced,
            "fast_path_hits": self.fast_path_hits,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "cancelled_running": self.cancelled_running,
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "workers": self.workers,
            "latency_p50_ms": self.latency_p50 * 1000.0,
            "latency_p95_ms": self.latency_p95 * 1000.0,
            "search_counters": dict(self.search_counters),
            "result_memo_hit_rate": self.result_memo.hit_rate,
            "engine_cache_hit_rate": self.engine_cache.hit_rate,
            "engine_cache_shards": [
                {"hits": s.hits, "misses": s.misses, "hit_rate": s.hit_rate}
                for s in self.engine_cache_shards
            ],
            "catalog": self.catalog.as_dict() if self.catalog is not None else None,
            "health": dict(self.health),
        }


class DecompositionService:
    """Concurrent facade over the decomposition pipeline and query engine.

    Parameters
    ----------
    workers:
        Size of the worker pool draining the request queue.
    backend:
        ``"thread"`` (default) runs tasks on a pool of threads sharing the
        engine in-process; ``"process"`` runs them in long-lived worker
        processes, one per pool thread, each with its own warm
        engine/query-engine/column stores, routed by cache affinity (see
        :mod:`repro.service.process_backend`).  Thread mode keeps zero IPC
        cost and shares one cache; process mode buys real multi-core
        scaling for CPU-bound traffic at the price of shipping inputs
        across the boundary (hypergraphs/databases ship once per worker).
    engine:
        The shared :class:`~repro.pipeline.engine.DecompositionEngine`;
        defaults to the process-wide engine, so results are shared with
        direct library callers.
    algorithm / algorithm_options:
        Default registry algorithm (and options) for decomposition requests;
        both can be overridden per :meth:`submit`.  A ``timeout`` option
        here becomes the default per-request computation timeout.  An
        unknown algorithm or an option it does not take is a
        :class:`ServiceError` here, not a failure of every request.
    poison_threshold:
        Number of worker crashes (exceptions escaping task execution — not
        ordinary failures, which finalize on first delivery) after which a
        task is quarantined: finalized as failed with a descriptive
        :class:`ServiceError` instead of retried forever or left hanging.
    """

    def __init__(
        self,
        workers: int = 4,
        engine: DecompositionEngine | None = None,
        algorithm: str = "hybrid",
        poison_threshold: int = 3,
        backend: str = "thread",
        **algorithm_options,
    ) -> None:
        if workers < 1:
            raise ServiceError("workers must be >= 1")
        if poison_threshold < 1:
            raise ServiceError("poison_threshold must be >= 1")
        if backend not in {"thread", "process"}:
            raise ServiceError(f"unknown service backend {backend!r}")
        self.backend = backend
        self.poison_threshold = poison_threshold
        self.engine = engine if engine is not None else default_engine()
        self.algorithm = algorithm
        # timeout is an explicit keyword of submit, registry.build and
        # QueryEngine; leaving it inside algorithm_options would collide
        # with it there.
        self.default_timeout = algorithm_options.pop("timeout", None)
        self.algorithm_options = dict(algorithm_options)
        _build(algorithm, self.default_timeout, algorithm_options)
        self.workers = workers

        self._seq = count()
        self._lock = threading.Lock()
        self._inflight: dict[tuple, _Task] = {}
        self._results = ShardedLRU(_RESULT_MEMO_ENTRIES)
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._closed = False

        #: The live request counters (guarded by ``_lock``).
        self._counters = ServiceStats(workers=workers)
        self._worker_crashes = 0
        self._worker_respawns = 0
        self._tasks_requeued = 0
        self._quarantined = 0
        #: The merged statistics of every decomposition computed by this
        #: service: cache and memo-served requests do not add to them, so the
        #: snapshot reflects the actual kernel work done, not the request
        #: volume.
        self._searched = SearchStatistics()

        self._query_engine: QueryEngine | None = None
        self._query_engine_lock = threading.Lock()

        # Worker thread i drains self._queues[i].  Thread workers share one
        # queue; a process slot owns its queue, because the admission key
        # decides which worker process is warm for a task.
        if backend == "process":
            self._process_backend: ProcessBackend | None = ProcessBackend(self, workers)
            self._queues = [pyqueue.PriorityQueue() for _ in range(workers)]
        else:
            self._process_backend = None
            self._queues = [pyqueue.PriorityQueue()] * workers
        self._workers = [
            threading.Thread(
                target=self._worker_loop, args=(i,), name=f"repro-service-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        hypergraph: Hypergraph,
        k: int,
        *,
        algorithm: str | None = None,
        timeout: float | None = None,
        priority: int | None = None,
        **options,
    ) -> ServiceTicket:
        """Schedule ``decompose(hypergraph, k)`` and return a ticket.

        ``timeout`` bounds the *computation* (enforced by the engine's
        deadline machinery; a timed-out request completes with
        ``result.timed_out``), not the caller's wait.  The request's
        decomposer is built here, so an unknown algorithm or an option it
        does not take is a :class:`ServiceError` at submit.  Requests for
        the same ``(canonical hash, k, decomposer.cache_key())`` key are
        deduplicated: already-completed keys return an immediately-done
        ticket from the sharded result memo, in-flight keys coalesce onto
        the running computation.

        Coalesced and memo-served callers share one
        :class:`~repro.core.base.DecompositionResult` object (hosted on the
        hypergraph of the request that computed it — by construction an
        edge-for-edge equal instance).  The result and its decomposition are
        frozen, but ``result.statistics`` is still one shared, mutable
        :class:`~repro.counters.Counters` record; treat it as read-only, as
        concurrent callers do.  Requests carrying non-primitive option values (e.g. a
        metric *instance*) are never shared: their configuration identity
        cannot be compared safely, so they bypass dedup and memoization.
        """
        if hypergraph.num_edges == 0:
            raise SolverError("cannot decompose a hypergraph without edges")
        name = algorithm if algorithm is not None else self.algorithm
        # Service-level options are tailored to the service's default
        # algorithm; a per-request override of a *different* algorithm must
        # not inherit them (it may not accept those keywords at all).
        if name in registry and registry.resolve(name) == registry.resolve(self.algorithm):
            merged = {**self.algorithm_options, **options}
        else:
            merged = dict(options)
        # A timeout inside **options would collide with the explicit
        # keyword below; fold it into the timeout parameter instead.
        # Precedence: explicit argument > per-request option > service default.
        if timeout is None:
            timeout = merged.pop("timeout", None)
        else:
            merged.pop("timeout", None)
        if timeout is None:
            timeout = self.default_timeout
        decomposer = _build(name, timeout, merged)
        key = ("decompose", hypergraph.canonical_hash(), k, decomposer.cache_key())
        memoize = True
        if not all(
            isinstance(value, PRIMITIVE_OPTION_TYPES) for value in merged.values()
        ):
            # cache_key() collapses object-valued options (e.g. a hybrid
            # metric instance) to their type name, so two requests with
            # differently-parameterized objects of one class would collide.
            # Make such requests unique instead of risking a wrong shared
            # result: no cross-request dedup or memoization.
            key = key + ("unshared", next(self._seq))
            memoize = False
        submitted_at = time.monotonic()

        request = None
        if self._process_backend is not None:
            # Raises ServiceError for option values that cannot cross the
            # process boundary (anything but str/int/float/bool/None).
            request = self._process_backend.decompose_request(
                hypergraph, name, k, timeout, merged
            )

        def run(cancel_event):
            return self.engine.decompose(decomposer, hypergraph, k, cancel_event=cancel_event)

        return self._admit(
            key,
            run,
            submitted_at,
            memoize=memoize,
            priority=PRIORITY_NORMAL if priority is None else priority,
            request=request,
        )

    def submit_query(
        self,
        query,
        database,
        mode: AnswerMode | str = AnswerMode.ENUMERATE,
        *,
        executor: str = "columnar",
        timeout: float | None = None,
        priority: int | None = None,
    ) -> ServiceTicket:
        """Schedule a conjunctive query; the ticket resolves to a
        :class:`~repro.query.workload.QueryResult` (thread backend) or a
        :class:`~repro.query.workload.QueryAnswer` (process backend) — the
        read surface (``mode``/``answers``/``boolean``/``count``/``width``)
        is shared.

        Boolean and count queries are scheduled at interactive priority,
        ahead of full enumeration still waiting in the service's queue.
        Identical concurrent (query shape,
        mode, database, timeout) requests coalesce; completed query results
        are not memoized by the service — the plan cache and the database's
        column store already make repeats cheap, and the memo would have to
        pin the database alive.  Cancelling a query ticket before the task
        starts removes it from the queue; once executing, the columnar
        executor aborts at its next periodic cancellation check and the
        SQL executor interrupts its in-flight statement (see
        :meth:`ServiceTicket.cancel`).  ``timeout`` bounds the execution
        stage the same way (the ticket then raises
        :class:`~repro.exceptions.TimeoutExceeded`).

        ``executor`` selects the query engine's execution arm
        (``"columnar"`` or ``"sql"``); with the process backend, a
        path-backed :class:`~repro.query.sqlgen.SQLDatabase` ships as its
        *path* token, so on-disk databases larger than memory never cross
        the worker pipe.
        """
        mode = AnswerMode.coerce(mode)
        try:
            check_executor(executor)
        except QueryError as error:
            raise ServiceError(str(error)) from None
        query_engine = self._resolve_query_engine()
        if priority is None:
            priority = (
                PRIORITY_INTERACTIVE if mode.is_interactive else PRIORITY_BULK
            )
        # id(database) is safe here because the key is only used for
        # *in-flight* dedup: the task references the database, so its id
        # cannot be recycled while the key is live.
        key = (
            "query",
            query_signature(query),
            mode.value,
            query_engine.configuration,
            id(database),
            timeout,
            executor,
        )
        submitted_at = time.monotonic()

        request = None
        if self._process_backend is not None:
            # Raises ServiceError when the database holds values that
            # cannot cross the process boundary (non-JSON-scalar tuples).
            request = self._process_backend.query_request(
                query, database, mode, timeout, executor=executor
            )

        def run(cancel_event) -> QueryResult:
            return query_engine.execute(
                query,
                database,
                mode,
                executor=executor,
                cancel_event=cancel_event,
                timeout=timeout,
            )

        return self._admit(
            key, run, submitted_at, memoize=False, priority=priority, request=request
        )

    def map(self, hypergraphs, k: int, **options) -> list[DecompositionResult]:
        """Submit many decomposition requests and gather results in order."""
        tickets = [self.submit(h, k, **options) for h in hypergraphs]
        return [ticket.result() for ticket in tickets]

    def _admit(
        self,
        key: tuple,
        run,
        submitted_at: float,
        *,
        memoize: bool,
        priority: int,
        request=None,
    ) -> ServiceTicket:
        if not isinstance(priority, int) or priority >= _SHUTDOWN_PRIORITY:
            # A priority sorting behind the shutdown sentinels would make
            # the task undrainable and its tickets unresolvable.
            raise ServiceError(f"priority out of range: {priority!r}")
        with self._lock:
            if self._closed:
                raise ServiceError("service is shut down")
            self._counters.submitted += 1
            task = self._inflight.get(key)
            if task is not None and not task.cancelled:
                ticket = ServiceTicket(self, task, submitted_at)
                task.tickets.append(ticket)
                self._counters.coalesced += 1
                if priority < task.priority and not task.started:
                    # A more urgent caller joined a queued task: escalate by
                    # re-enqueueing at the stronger priority.  The stale
                    # queue entry is skipped when dequeued (_execute ignores
                    # tasks that already started or finished).
                    task.priority = priority
                    self._enqueue(task)
                return ticket
            if memoize:
                # Probe the completed-result memo under the lock.  Workers
                # memoize BEFORE dropping the in-flight entry, so a key is
                # always either in flight, memoized, or genuinely new —
                # there is no window in which a decided key gets recomputed.
                cached = self._results.get(key)
                if cached is not None:
                    self._counters.fast_path_hits += 1
                    self._counters.completed += 1
                    self._latencies.append(time.monotonic() - submitted_at)
                    done_task = _Task(key, priority, run=None, memoize=False)
                    done_task.result = cached
                    done_task.done.set()
                    return ServiceTicket(self, done_task, submitted_at)
            task = _Task(key, priority, run, memoize)
            task.request = request
            ticket = ServiceTicket(self, task, submitted_at)
            task.tickets.append(ticket)
            self._inflight[key] = task
            self._enqueue(task)
            return ticket

    def _enqueue(self, task: _Task) -> None:
        """Queue ``task`` for the worker that will run it (lock held)."""
        backend = self._process_backend
        slot = backend.slot_for(task.key) if backend is not None else 0
        self._queues[slot].put((task.priority, next(self._seq), task))

    # ------------------------------------------------------------------ #
    # worker pool
    # ------------------------------------------------------------------ #
    def _worker_loop(self, slot: int) -> None:
        """Drain tasks until the shutdown sentinel arrives — supervised.

        :meth:`_execute` converts *task* failures into ticket outcomes, so
        what escapes it is a crash of the worker, not of the task: the
        ``service.worker`` fault point injects one (simulating a bug in the
        dispatch path itself), and under the process backend a dead worker
        process surfaces as one (:class:`WorkerDied`).  Either would kill
        the thread and silently shrink the pool; the supervisor instead
        hands the task to :meth:`_supervise_crash` (requeue / quarantine /
        fail) and revives the worker in place — the pool never shrinks and
        no ticket is left hanging.
        """
        queue = self._queues[slot]
        backend = self._process_backend
        idle_timeout = POLL_INTERVAL if backend is not None else None
        while True:
            try:
                _priority, _seq, task = queue.get(timeout=idle_timeout)
            except pyqueue.Empty:
                backend.sweep(slot)  # a worker process that died idle
                continue
            if task is None:
                return
            try:
                faults.fire("service.worker", kind=task.key[0], attempt=task.attempts)
                self._execute(task, slot)
            except BaseException as exc:
                self._supervise_crash(task, exc)

    def _supervise_crash(self, task: _Task, exc: BaseException) -> None:
        """A task crashed its worker: requeue it, quarantine it, or fail it.

        Runs on the reviving worker thread.  A key that keeps crashing
        workers is poison — after ``poison_threshold`` crashes it is
        finalized as failed with a descriptive error chaining the last
        crash, instead of being retried forever or leaving its tickets
        hanging.
        """
        with self._lock:
            self._worker_crashes += 1
            self._worker_respawns += 1
            if task.done.is_set():
                return
            task.attempts += 1
            task.started = False
            if task.cancelled:
                self._finalize_locked(task, None, None)
                return
            if task.attempts >= self.poison_threshold:
                self._quarantined += 1
                error: BaseException = ServiceError(
                    f"request {task.key[0]!r} key quarantined after "
                    f"{task.attempts} worker crash(es); last crash: {exc!r}"
                )
                error.__cause__ = exc
                self._finalize_locked(task, None, error)
                return
            if self._closed:
                # The sentinels may already be drained; a requeued task
                # could sit in the queue forever with no worker coming back
                # for it.  Fail it loudly instead of hanging its tickets.
                error = ServiceError("service shut down while retrying a crashed request")
                error.__cause__ = exc
                self._finalize_locked(task, None, error)
                return
            self._tasks_requeued += 1
            self._enqueue(task)

    def _execute(self, task: _Task, slot: int) -> None:
        with self._lock:
            if task.started or task.done.is_set():
                return  # stale queue entry from a priority escalation
            if task.cancelled:
                self._finalize_locked(task, None, None)
                return
            task.started = True
            if not task.counted:
                # Crash retries re-execute the same logical computation;
                # counting it once keeps the exactly-once accounting
                # (computations <= distinct keys) honest under chaos.
                task.counted = True
                self._counters.computations += 1
                by_kind = self._counters.computations_by_kind
                by_kind[task.key[0]] = by_kind.get(task.key[0], 0) + 1
        try:
            if self._process_backend is None:
                result = task.run(task.cancel_event)
            else:
                result = self._process_backend.run(slot, task)
            error = None
        except WorkerDied:
            raise  # the worker's crash, not the task's failure: supervised
        except BaseException as exc:  # surfaced through the tickets
            result, error = None, exc
        self._complete(task, result, error)

    def _complete(self, task: _Task, result, error) -> None:
        """Deliver a task outcome: memo, counter merge, finalize."""
        # Memoize BEFORE the task leaves the in-flight table: a concurrent
        # submit that misses the in-flight entry re-probes the memo under
        # the service lock, so there is no window in which a duplicate
        # computation can be scheduled for a decided key.
        if (
            task.memoize
            and error is None
            and result is not None
            and not task.cancelled
            and not getattr(result, "timed_out", False)
        ):
            self._results.put(task.key, result)
        with self._lock:
            statistics = getattr(result, "statistics", None)
            if isinstance(statistics, SearchStatistics):
                self._searched.merge(statistics)
                self._counters.search_counters = self._searched.search_counters()
            self._finalize_locked(task, result, error)

    def _finalize_locked(self, task: _Task, result, error) -> None:
        """Publish a task outcome; the caller holds ``self._lock``."""
        now = time.monotonic()
        # Conditional pop: a cancelled task may already have been replaced
        # by a fresh computation under the same key.
        if self._inflight.get(task.key) is task:
            del self._inflight[task.key]
        task.result = result
        task.error = error
        # Pin the worker-side traceback now: each ServiceTicket.result()
        # re-raise restores it, so coalesced waiters don't stack re-raise
        # frames onto the shared instance.
        task.error_tb = error.__traceback__ if error is not None else None
        # Counters are per *ticket* (request), so that eventually
        # submitted == completed + failed + cancelled holds; individually
        # cancelled tickets were already counted by _cancel_ticket.
        if task.cancelled:
            self._counters.cancelled += len(task.tickets)
        elif error is not None:
            self._counters.failed += len(task.tickets)
            for ticket in task.tickets:
                self._latencies.append(now - ticket.submitted_at)
        else:
            self._counters.completed += len(task.tickets)
            for ticket in task.tickets:
                self._latencies.append(now - ticket.submitted_at)
        task.done.set()

    def _cancel_ticket(self, ticket: ServiceTicket) -> bool:
        task = ticket._task
        with self._lock:
            if task.done.is_set():
                return False
            ticket.cancelled = True
            if ticket in task.tickets:
                task.tickets.remove(ticket)
                self._counters.cancelled += 1
            if not task.tickets:
                task.cancelled = True
                task.cancel_event.set()
                if task.started:
                    # Aborting a computation that is already executing —
                    # distinct from dropping a queued one.  The running
                    # search/executor observes the event (which the process
                    # backend's waiting thread forwards to its worker) at
                    # its next periodic check.
                    self._counters.cancelled_running += 1
            return True

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def _resolve_query_engine(self) -> QueryEngine:
        with self._query_engine_lock:
            if self._query_engine is None:
                self._query_engine = QueryEngine(
                    algorithm=self.algorithm,
                    engine=self.engine,
                    timeout=self.default_timeout,
                    **self.algorithm_options,
                )
            return self._query_engine

    def stats(self) -> ServiceStats:
        """A consistent snapshot of counters, cache traffic and latency."""
        backend = self._process_backend
        with self._lock:
            # Only copy under the lock; the O(n log n) percentile sort runs
            # outside so high-frequency monitoring polls never stall
            # submits or worker finalization.
            samples = list(self._latencies)
            if backend is not None:
                workers_alive = backend.alive_workers()
            else:
                workers_alive = sum(1 for worker in self._workers if worker.is_alive())
            stats = replace(
                self._counters,
                computations_by_kind=dict(self._counters.computations_by_kind),
                queue_depth=sum(queue.qsize() for queue in set(self._queues)),
                inflight=len(self._inflight),
                search_counters=dict(self._counters.search_counters),
                engine_cache=ShardStats(),
                engine_cache_shards=[],
                health={
                    "backend": self.backend,
                    "workers_alive": workers_alive,
                    "workers_total": self.workers,
                    "worker_crashes": self._worker_crashes,
                    "worker_respawns": self._worker_respawns,
                    "tasks_requeued": self._tasks_requeued,
                    "quarantined": self._quarantined,
                    # Replacement *processes* spawned by a supervisor: the
                    # parallel backend's respawns aggregated over this
                    # service's computations (SearchStatistics.worker_respawns)
                    # plus, under the process backend, its own slot respawns.
                    "process_worker_respawns": self._searched.worker_respawns
                    + (backend.respawns if backend is not None else 0),
                    "catalog_circuit": None,
                },
            )
        if backend is not None:
            stats.health["process_backend"] = backend.snapshot()
        samples.sort()
        stats.latency_p50 = _percentile(samples, 0.50)
        stats.latency_p95 = _percentile(samples, 0.95)
        stats.result_memo = self._results.stats()
        cache = self.engine.cache
        if cache is not None:
            stats.engine_cache_shards = cache.shard_statistics()
            for shard in stats.engine_cache_shards:
                stats.engine_cache.merge(shard)
        catalog = getattr(self.engine, "catalog", None)
        if catalog is not None:
            stats.catalog = catalog.stats()
            if backend is not None:
                # The durable tier is shared; fold every worker handle's
                # latest traffic snapshot into the parent's so hit/miss and
                # circuit counters reflect the whole pool.
                stats.catalog = backend.merged_catalog_stats(stats.catalog)
            stats.health["catalog_circuit"] = {
                "state": stats.catalog.circuit_state,
                "opens": stats.catalog.circuit_opens,
                "probes": stats.catalog.circuit_probes,
                "reattaches": stats.catalog.circuit_reattaches,
                "retries": stats.catalog.retries,
                "memory_fallback": stats.catalog.memory_fallback,
            }
        return stats

    def catalog_probe(self) -> bool:
        """Probe the durable catalog tier on every handle this service owns.

        The parent's handle probes directly; under the process backend the
        probe also fans out to each worker's handle (an open worker-side
        circuit breaker only re-attaches when probed).  Returns True iff
        every probed handle is healthy.
        """
        catalog = getattr(self.engine, "catalog", None)
        ok = catalog.probe() if catalog is not None else True
        if self._process_backend is not None:
            ok = self._process_backend.broadcast_probe() and ok
        return ok

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop accepting requests and wind the worker pool down.

        With ``wait=True`` (default) the queue drains first and every
        outstanding ticket resolves.  ``cancel_pending=True`` instead fails
        queued-but-unstarted requests with :class:`ServiceError` and asks
        running searches to abort via their cancellation events.

        Idempotent: only the first call closes, drains and posts the worker
        sentinels, but *every* call with ``wait=True`` joins the workers —
        so ``shutdown(wait=False)`` followed by ``shutdown(wait=True)``
        (e.g. the implicit one from ``with``) still blocks until the pool
        has wound down.
        """
        with self._lock:
            first = not self._closed
            self._closed = True
        if first and cancel_pending:
            queues = list(set(self._queues))
            while queues:
                try:
                    _priority, _seq, task = queues[-1].get_nowait()
                except pyqueue.Empty:
                    queues.pop()
                    continue
                if task is None:
                    continue
                with self._lock:
                    # Skip stale entries left behind by priority escalation
                    # (same guard as _execute): a started task is the
                    # running worker's to finalize, a done one already was.
                    if task.started or task.done.is_set():
                        continue
                    task.cancelled = True
                    task.cancel_event.set()
                    self._finalize_locked(
                        task, None, ServiceError("service shut down before the request ran")
                    )
            with self._lock:
                for task in list(self._inflight.values()):
                    task.cancel_event.set()
        if first:
            # One sentinel per worker thread; it sorts behind every
            # admissible priority, so each queue drains before its workers
            # exit.
            for queue in self._queues:
                queue.put((_SHUTDOWN_PRIORITY, next(self._seq), None))
        if wait:
            for worker in self._workers:
                worker.join()
            if self._process_backend is not None:
                self._process_backend.stop()

    def __enter__(self) -> "DecompositionService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=True)
