"""Parallel execution of the separator search (Appendix D.1).

The paper parallelises log-k-decomp by partitioning the search space of
balanced separators uniformly over the available cores; because subproblems
are independent, the workers need no coordination.  This module reproduces
that strategy:

* The edges are partitioned round-robin into ``num_workers`` groups and
  worker ``i`` enumerates, in log-k-decomp's depth-1 child loop, only the
  labels whose smallest edge index falls in group ``i``.  The groups' label
  streams are disjoint and their union is the full stream, so "all workers
  fail" is a sound "no" answer and "any worker succeeds" is a sound "yes".
  The hybrid's budgeted det-k root (phase 1) is never partitioned: the
  coordinator runs it before any fork and keeps its answer if it decides;
  otherwise the workers inherit its memo and run only phase 2.  Below
  depth 1 each worker searches on its own, with a private memo for what it
  finds — and one :class:`~repro.core.refuted.RefutedTable`, created before
  the first fork, for what any worker refutes: a subproblem reachable from
  several groups is refuted once, by whoever meets it first, and a respawned
  worker resumes from what its predecessor wrote.  The table needs no lock
  and no pipe; positives still travel only as the one fragment out.
* The search itself is not this module's: every worker runs the sequential
  decomposer's own on its partition (the hybrid's ``logk_phase``, or plain
  log-k-decomp's ``search`` with ``hybrid=False``).  Nor is the run:
  :class:`ParallelLogKDecomposer` implements only ``search`` (the
  coordinator), and the shared :meth:`~repro.core.base.Decomposer.decompose_raw`
  arms the deadline and builds the result.  A cancel, or a partition that
  timed out or was abandoned, reaches it as
  :class:`~repro.exceptions.TimeoutExceeded`: the run is undecided.
* The coordinator forks one supervised
  :class:`~repro.faults.supervise.WorkerProcess` per partition (each worker
  is a separate interpreter).  A caller that may not fork — a daemonic
  process, i.e. a serving-layer worker — runs the sequential search instead:
  under CPython's GIL a thread per partition only adds the partitioning's
  duplicated work to the same one core (see "Parallel search" in
  ``docs/architecture.md``).

The Go implementation evaluated in the paper parallelises every recursion
level; partitioning only the top level is a simplification that preserves the
strategy's character (independent partitions, nothing to lock or ship between
them) while keeping the Python implementation portable.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
from collections.abc import Callable
from functools import partial

from .. import faults
from ..deadline import Deadline
from ..decomp.extended import FragmentNode
from ..exceptions import SolverError, TimeoutExceeded
from ..faults.supervise import WorkerProcess, poll, write_frame
from ..hypergraph import Hypergraph
from .base import Decomposer, SearchContext, SearchStatistics
from .hybrid import HybridDecomposer, SwitchMetric
from .logk import LogKDecomposer
from .refuted import RefutedTable

__all__ = ["ParallelLogKDecomposer"]

logger = logging.getLogger("repro.parallel")


def partition_edges(num_edges: int, num_workers: int) -> list[list[int]]:
    """The partition rule: edge indices dealt round-robin, no empty group.

    Worker ``i`` owns the labels whose *smallest* edge index is in group
    ``i``; a host with fewer edges than workers gets fewer workers.
    """
    return [
        list(range(slot, num_edges, num_workers))
        for slot in range(min(num_workers, num_edges))
    ]


def _worker_main(result_fd, slot, attempt, fault_spec, *args) -> None:
    """Process-backend entry point: run the search, ship the outcome back.

    Every worker writes exactly one frame (``_worker_search`` converts any
    internal failure into a ``timed_out`` outcome).  ``fault_spec``
    re-creates the parent's fault injector in the child; the
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
    write_frame(result_fd, outcome)


WorkerSearch = Callable[[SearchContext, list[int]], FragmentNode | None]


def _worker_search(
    search: WorkerSearch,
    hypergraph: Hypergraph,
    k: int,
    partition: list[int],
    deadline: Deadline | None,
    refuted: RefutedTable | None = None,
) -> tuple[bool, bool, FragmentNode | None, SearchStatistics]:
    """One worker: ``search`` on a fresh context, restricted to ``partition``.

    Returns ``(timed_out, success, fragment, statistics)``.  ``deadline`` is
    the coordinator's own (its instant is absolute); a worker whose answer is
    no longer needed is terminated by the coordinator.  ``refuted`` is the
    run's shared table; without one the partition is searched on its own.
    """
    context = SearchContext(hypergraph, k, deadline, refuted=refuted)
    try:
        fragment = search(context, partition)
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
        hybrid: bool = True,
        metric: SwitchMetric | str = "WeightedCount",
        threshold: float = 400.0,
        subedge_domination: bool = True,
        engine=None,
    ) -> None:
        super().__init__(timeout=timeout, engine=engine)
        if num_workers < 1:
            raise SolverError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.hybrid = hybrid
        self.metric = metric
        self.threshold = threshold
        self.subedge_domination = subedge_domination

    # ------------------------------------------------------------------ #
    # Decomposer interface
    # ------------------------------------------------------------------ #
    def search(self, context: SearchContext) -> FragmentNode | None:
        base = self._sequential()
        # A daemonic process (a serving-layer worker) may not have children.
        if self.num_workers <= 1 or mp.current_process().daemon:
            return base.search(context)
        context.force_timeout_check()
        search: WorkerSearch = base.search
        if self.hybrid:
            # Phase 1 here, once and unpartitioned: its "no" is the
            # sequential hybrid's.  The workers run phase 2 only, each on
            # its forked copy of phase 1's det-k memo.
            detk, decided, fragment = base.detk_phase(context)
            if decided:
                return fragment
            search = partial(base.logk_phase, detk)
        # Built once here (the incidence table on the way): forked workers
        # and their respawns inherit both tables.
        context.host.adjacency_masks()
        return self._run_processes(context, search)

    # ------------------------------------------------------------------ #
    # the search the workers run, and their supervision
    # ------------------------------------------------------------------ #
    def _sequential(self) -> Decomposer:
        if self.hybrid:
            return HybridDecomposer(
                timeout=self.timeout,
                metric=self.metric,
                threshold=self.threshold,
                subedge_domination=self.subedge_domination,
            )
        return LogKDecomposer(timeout=self.timeout, subedge_domination=self.subedge_domination)

    #: Respawn budget per partition slot; beyond it the slot is abandoned
    #: (the run degrades to undecided instead of looping on a doomed
    #: partition).
    _MAX_RESPAWNS_PER_SLOT = 2

    def _run_processes(self, context: SearchContext, search: WorkerSearch) -> FragmentNode | None:
        """The first fragment a worker finds, or ``None`` once every partition
        failed; the workers' counters go to ``context.stats``.

        Raises :class:`TimeoutExceeded` on a cancel, and when a partition
        timed out or was abandoned (its "no" is then unknown).
        """
        # One supervised worker per partition: a worker that dies without
        # reporting (OOM-killed, injected ``kill``) is respawned on the same
        # partition — the search is pure, so recomputing a partition is
        # sound — up to ``_MAX_RESPAWNS_PER_SLOT`` attempts, after which the
        # slot is abandoned and the run degrades to undecided.  One absolute
        # deadline for every attempt (the monotonic clock is shared across
        # the fork): a respawn gets what is left of the caller's budget.
        fault_spec = faults.current_spec()
        hypergraph, k, deadline, stats = context.host, context.k, context.deadline, context.stats
        partitions = partition_edges(hypergraph.num_edges, self.num_workers)
        # Shared by every worker and respawn from here on (fork inherits it).
        refuted = RefutedTable()

        def spawn(worker: WorkerProcess) -> dict:
            slot = worker.index
            search_args = (search, hypergraph, k, partitions[slot], deadline, refuted)
            return {
                "target": _worker_main,
                "args": (worker.result_wfd, slot, worker.attempt, fault_spec, *search_args),
            }

        # fork: the workers take ``search``, the host and their result fd along.
        fork = mp.get_context("fork")
        workers = [WorkerProcess(fork, slot, spawn) for slot in range(len(partitions))]
        pending = set(workers)
        timed_out = False
        try:
            for worker in workers:
                worker.start()
            while pending:
                # External cancellation (a threading.Event cannot cross the
                # process boundary): terminate the workers in the finally
                # block and report the run as undecided.  The budget the
                # workers poll themselves, and report.
                if deadline is not None and deadline.reason() == "cancelled":
                    raise TimeoutExceeded("decomposition cancelled")
                received = poll(pending, 0.1)
                for worker, outcome in received:
                    pending.discard(worker)
                    worker_timeout, success, fragment, worker_stats = outcome
                    stats.merge(worker_stats)
                    timed_out = timed_out or worker_timeout
                    if success:
                        return fragment
                if received:
                    continue
                for worker in workers:
                    if worker not in pending or not worker.crashed():
                        continue
                    if worker.attempt >= self._MAX_RESPAWNS_PER_SLOT:
                        logger.warning(
                            "parallel worker slot %d died %d times "
                            "(last exit code %s); abandoning its "
                            "partition — the run degrades to undecided",
                            worker.index,
                            worker.attempt + 1,
                            worker.process.exitcode,
                        )
                        pending.discard(worker)
                        timed_out = True
                        continue
                    stats.worker_respawns += 1
                    logger.warning(
                        "parallel worker slot %d died (exit code %s); "
                        "respawning attempt %d on the same partition",
                        worker.index,
                        worker.process.exitcode,
                        worker.attempt + 1,
                    )
                    worker.respawn()
        finally:
            for worker in workers:
                worker.stop()
            refuted.close()
        if timed_out:
            raise TimeoutExceeded("decomposition undecided: a partition timed out or was abandoned")
        return None
