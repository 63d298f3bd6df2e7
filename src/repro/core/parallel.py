"""Parallel execution of the separator search (Appendix D.1).

The paper parallelises log-k-decomp by partitioning the search space of
balanced separators uniformly over the available cores; because subproblems
are independent, no communication between workers is needed.  This module
reproduces that strategy:

* The edges are partitioned round-robin into ``num_workers`` groups and
  worker ``i`` enumerates, at recursion depth 1, only the labels whose
  smallest edge index falls in group ``i``.  *Whichever search runs the
  depth-1 label loop owns the partition*: log-k-decomp's child loop, or —
  when the hybrid metric puts the whole instance below the threshold and
  the root itself is delegated — det-k-decomp's.  The groups' label streams
  are disjoint and their union is the full stream, so "all workers fail" is
  a sound "no" answer and "any worker succeeds" is a sound "yes".  Below
  depth 1 each worker searches on its own, with a private memo (no
  communication, as in the paper), so subproblems reachable from several
  groups are solved once per worker that meets them.
* Two backends are provided.  The ``process`` backend uses
  :mod:`multiprocessing` and delivers real speedups (each worker is a
  separate interpreter); the ``thread`` backend exists for API parity and to
  measure — as documented in DESIGN.md — that CPython's GIL prevents
  thread-level scaling for this CPU-bound search.

The Go implementation evaluated in the paper parallelises every recursion
level; partitioning only the top level is a simplification that preserves the
strategy's character (independent partitions, no shared state) while keeping
the Python implementation portable.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import queue as pyqueue
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

from .. import faults
from ..decomp.extended import FragmentNode, full_bitcomp
from ..exceptions import SolverError, TimeoutExceeded
from ..hypergraph import Hypergraph
from .base import Decomposer, DecompositionResult, SearchContext, SearchStatistics
from .detk import DetKSearch
from .fragments import fragment_to_decomposition
from .hybrid import HybridDecomposer, make_metric
from .logk import LogKSearch

__all__ = ["EitherEvent", "ParallelLogKDecomposer"]

logger = logging.getLogger("repro.parallel")


class _EitherEvent:
    """Read-only OR view over two events (only ``is_set`` is consulted)."""

    __slots__ = ("first", "second")

    def __init__(self, first, second) -> None:
        self.first = first
        self.second = second

    def is_set(self) -> bool:
        return self.first.is_set() or self.second.is_set()


#: Public alias: the serving layer's process backend composes its worker-side
#: cancel signals (pool stop | shutdown abort | per-request cancel ring) out
#: of the same OR view the thread backend uses here.
EitherEvent = _EitherEvent


def _worker_search_to_queue(result_queue, slot, attempt, fault_spec, args: tuple) -> None:
    """Process-backend entry point: run the search, ship the outcome back.

    Every worker puts exactly one slot-tagged result (``_worker_search``
    converts any internal failure into a ``timed_out`` outcome), so the
    coordinator tracks completion per partition instead of trusting pool
    machinery.  ``fault_spec`` re-creates the parent's fault injector in the
    child (injection must behave identically under fork and spawn); the
    ``parallel.worker`` point fired here carries ``slot``/``attempt``
    context, so a chaos schedule can kill attempt 0 of a slot and let its
    respawned replacement live.
    """
    faults.install_spec(fault_spec)
    try:
        faults.fire("parallel.worker", slot=slot, attempt=attempt)
        outcome = _worker_search(*args)
    except Exception:
        # An injected (or otherwise escaped) error: report the partition as
        # undecided rather than dying without a word.
        outcome = (True, False, None, SearchStatistics())
    result_queue.put((slot, outcome))


def _worker_search(
    edges: dict[str, frozenset[str]],
    hypergraph_name: str,
    k: int,
    partition: list[int],
    timeout: float | None,
    hybrid: bool,
    metric_name: str,
    threshold: float,
    label_pruning: bool = True,
    subedge_domination: bool = True,
    cancel_event: threading.Event | None = None,
) -> tuple[bool, bool, FragmentNode | None, SearchStatistics]:
    """Worker entry point (module level so it can be pickled).

    ``cancel_event`` is only used by the thread backend: once some worker has
    succeeded, the coordinator sets the event and the remaining workers abort
    at their next periodic deadline check instead of burning CPU to the end
    of their partitions (``Future.cancel`` cannot stop an already-running
    worker).  Process workers are terminated through the pool instead.

    Returns ``(timed_out, success, fragment, statistics)``.
    """
    host = Hypergraph(edges, name=hypergraph_name)
    context = SearchContext(host, k, timeout=timeout, cancel_event=cancel_event)
    leaf_delegate = None
    delegate_predicate = None
    if hybrid:
        detk = DetKSearch(
            context,
            label_pruning=label_pruning,
            subedge_domination=subedge_domination,
            root_partition=partition,
        )
        metric = make_metric(metric_name)

        def leaf_delegate(comp, conn, depth, allowed, _detk=detk):  # type: ignore[misc]
            return _detk.search(comp, conn, depth, allowed=allowed)

        def delegate_predicate(comp, _metric=metric, _host=host, _k=k):  # type: ignore[misc]
            return _metric.value(_host, comp, _k) < threshold

    search = LogKSearch(
        context,
        label_pruning=label_pruning,
        subedge_domination=subedge_domination,
        leaf_delegate=leaf_delegate,
        delegate_predicate=delegate_predicate,
        root_partition=partition,
    )
    try:
        fragment = search.search(
            full_bitcomp(host), conn=0, allowed=host.all_edges_mask
        )
    except TimeoutExceeded:
        return True, False, None, context.stats
    except Exception:
        # A bug must not pass for a timeout unseen.  The partition still only
        # degrades to undecided, never to a wrong answer.
        logger.exception("parallel worker failed on partition %s", partition)
        return True, False, None, context.stats
    return False, fragment is not None, fragment, context.stats


class ParallelLogKDecomposer(Decomposer):
    """log-k-decomp (optionally hybrid) with a parallel top-level separator search."""

    name = "log-k-decomp-parallel"

    def __init__(
        self,
        timeout: float | None = None,
        num_workers: int = 1,
        backend: str = "process",
        hybrid: bool = True,
        metric: str = "WeightedCount",
        threshold: float = 400.0,
        label_pruning: bool = True,
        subedge_domination: bool = True,
        **engine_options,
    ) -> None:
        super().__init__(timeout=timeout, **engine_options)
        if num_workers < 1:
            raise SolverError("num_workers must be >= 1")
        if backend not in {"process", "thread"}:
            raise SolverError(f"unknown parallel backend {backend!r}")
        self.num_workers = num_workers
        self.backend = backend
        self.hybrid = hybrid
        self.metric = metric
        self.threshold = threshold
        self.label_pruning = label_pruning
        self.subedge_domination = subedge_domination

    # ------------------------------------------------------------------ #
    # Decomposer interface
    # ------------------------------------------------------------------ #
    def decompose_raw(
        self,
        hypergraph: Hypergraph,
        k: int,
        timeout: float | None = None,
        cancel_event=None,
    ) -> DecompositionResult:
        if self.num_workers <= 1:
            return self._sequential().decompose_raw(
                hypergraph, k, timeout=timeout, cancel_event=cancel_event
            )
        start = time.monotonic()
        num_edges = hypergraph.num_edges
        partitions = [
            list(range(slot, num_edges, self.num_workers))
            for slot in range(min(self.num_workers, num_edges))
        ]
        runner = self._run_processes if self.backend == "process" else self._run_threads
        effective_timeout = self.timeout if timeout is None else timeout
        timed_out, success, fragment, stats = runner(
            hypergraph, k, partitions, effective_timeout, cancel_event
        )
        elapsed = time.monotonic() - start
        decomposition = None
        if success and fragment is not None:
            decomposition = fragment_to_decomposition(hypergraph, fragment)
        return DecompositionResult(
            algorithm=self.name,
            hypergraph=hypergraph,
            width_parameter=k,
            success=success,
            decomposition=decomposition,
            elapsed=elapsed,
            timed_out=timed_out and not success,
            statistics=stats,
        )

    def _run(self, context: SearchContext):  # pragma: no cover - not used
        raise NotImplementedError("ParallelLogKDecomposer overrides decompose_raw()")

    # ------------------------------------------------------------------ #
    # backends
    # ------------------------------------------------------------------ #
    def _sequential(self) -> Decomposer:
        # use_engine=False: when the engine is on, it already ran the
        # preprocessing before calling decompose_raw; running it again in the
        # fallback would double the simplification work.
        if self.hybrid:
            return HybridDecomposer(
                timeout=self.timeout,
                metric=self.metric,
                threshold=self.threshold,
                label_pruning=self.label_pruning,
                subedge_domination=self.subedge_domination,
                use_engine=False,
            )
        from .logk import LogKDecomposer

        return LogKDecomposer(
            timeout=self.timeout,
            label_pruning=self.label_pruning,
            subedge_domination=self.subedge_domination,
            use_engine=False,
        )

    def _worker_args(
        self,
        hypergraph: Hypergraph,
        k: int,
        partition: list[int],
        timeout: float | None,
    ) -> tuple:
        return (
            hypergraph.edges_as_dict(),
            hypergraph.name,
            k,
            partition,
            timeout,
            self.hybrid,
            self.metric,
            self.threshold,
            self.label_pruning,
            self.subedge_domination,
        )

    #: A dead worker's result may still be in flight through the queue's
    #: feeder thread when ``is_alive`` first reports False; only after this
    #: many consecutive empty sweeps is the slot treated as crashed.
    _DEAD_STRIKES = 2
    #: Respawn budget per partition slot; beyond it the slot is abandoned
    #: (the run degrades to undecided instead of looping on a doomed
    #: partition).
    _MAX_RESPAWNS_PER_SLOT = 2

    def _run_processes(
        self,
        hypergraph: Hypergraph,
        k: int,
        partitions: list[list[int]],
        timeout: float | None,
        cancel_event: threading.Event | None = None,
    ) -> tuple[bool, bool, FragmentNode | None, SearchStatistics]:
        # Plain Process workers + one result queue instead of a Pool:
        # ``Pool.terminate`` can deadlock when its task-handler thread is
        # still blocked writing while terminate joins it (observed under
        # CPython 3.11), and this backend's only need is "first success
        # kills the rest", which Process.terminate does reliably.
        #
        # The coordinator supervises the pool: a worker that dies without
        # reporting (OOM-killed, injected ``kill``) is respawned on the same
        # partition — the search is pure, so recomputing a partition is
        # sound — up to ``_MAX_RESPAWNS_PER_SLOT`` attempts, after which the
        # slot is abandoned and the run degrades to undecided.
        context = mp.get_context()
        stats = SearchStatistics()
        timed_out = False
        result_queue = context.Queue()
        fault_spec = faults.current_spec()

        def spawn(slot: int, attempt: int):
            worker = context.Process(
                target=_worker_search_to_queue,
                args=(
                    result_queue,
                    slot,
                    attempt,
                    fault_spec,
                    self._worker_args(hypergraph, k, partitions[slot], timeout),
                ),
                daemon=True,
            )
            worker.start()
            return worker

        workers = {slot: spawn(slot, 0) for slot in range(len(partitions))}
        attempts = dict.fromkeys(workers, 0)
        strikes = dict.fromkeys(workers, 0)
        pending = set(workers)
        try:
            while pending:
                # External cancellation (a threading.Event cannot cross the
                # process boundary): terminate the workers in the finally
                # block and report the run as undecided.
                if cancel_event is not None and cancel_event.is_set():
                    return True, False, None, stats
                try:
                    slot, outcome = result_queue.get(timeout=0.1)
                except pyqueue.Empty:
                    for dead in sorted(pending):
                        if workers[dead].is_alive():
                            strikes[dead] = 0
                            continue
                        strikes[dead] += 1
                        if strikes[dead] < self._DEAD_STRIKES:
                            continue
                        if attempts[dead] >= self._MAX_RESPAWNS_PER_SLOT:
                            logger.warning(
                                "parallel worker slot %d died %d times "
                                "(last exit code %s); abandoning its "
                                "partition — the run degrades to undecided",
                                dead,
                                attempts[dead] + 1,
                                workers[dead].exitcode,
                            )
                            pending.discard(dead)
                            timed_out = True
                            continue
                        attempts[dead] += 1
                        strikes[dead] = 0
                        stats.worker_respawns += 1
                        logger.warning(
                            "parallel worker slot %d died (exit code %s); "
                            "respawning attempt %d on the same partition",
                            dead,
                            workers[dead].exitcode,
                            attempts[dead],
                        )
                        workers[dead] = spawn(dead, attempts[dead])
                    continue
                if slot not in pending:
                    continue  # stale twin from a slot already resolved
                pending.discard(slot)
                worker_timeout, success, fragment, worker_stats = outcome
                stats.merge(worker_stats)
                timed_out = timed_out or worker_timeout
                if success:
                    return False, True, fragment, stats
        finally:
            for worker in workers.values():
                if worker.is_alive():
                    worker.terminate()
            for worker in workers.values():
                worker.join()
            result_queue.close()
            result_queue.cancel_join_thread()
        return timed_out, False, None, stats

    def _run_threads(
        self,
        hypergraph: Hypergraph,
        k: int,
        partitions: list[list[int]],
        timeout: float | None,
        cancel_event: threading.Event | None = None,
    ) -> tuple[bool, bool, FragmentNode | None, SearchStatistics]:
        stats = SearchStatistics()
        timed_out = False
        cancel = threading.Event()
        # Workers poll one object; _EitherEvent folds the caller's external
        # cancellation into the coordinator's own first-success signal
        # without aliasing the two (setting the internal event on success
        # must not look like a caller cancel to anyone else).
        worker_cancel = (
            cancel if cancel_event is None else _EitherEvent(cancel, cancel_event)
        )
        with ThreadPoolExecutor(max_workers=len(partitions)) as executor:
            futures = {
                executor.submit(
                    _worker_search,
                    *self._worker_args(hypergraph, k, part, timeout),
                    cancel_event=worker_cancel,
                )
                for part in partitions
            }
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                if cancel_event is not None and cancel_event.is_set():
                    for other in futures:
                        other.cancel()
                    return True, False, None, stats
                for future in done:
                    worker_timeout, success, fragment, worker_stats = future.result()
                    stats.merge(worker_stats)
                    timed_out = timed_out or worker_timeout
                    if success:
                        # Future.cancel only helps workers still queued; the
                        # shared event makes already-running workers abort at
                        # their next deadline check, so the executor shutdown
                        # below does not wait for them to finish their
                        # partitions.
                        cancel.set()
                        for other in futures:
                            other.cancel()
                        return False, True, fragment, stats
        return timed_out, False, None, stats
