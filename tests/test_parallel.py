"""Unit tests for the parallel search-space-partitioning backend."""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing as mp
import os
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import HybridDecomposer, LogKDecomposer, ParallelLogKDecomposer
from repro.core.logk import LogKSearch
from repro.core.base import SearchContext, SearchStatistics
from repro.deadline import Deadline
from repro.core.detk import DetKSearch, _LabelBudgetSpent
from repro.core.fragments import fragment_to_decomposition
from repro.core.hybrid import EdgeCountMetric
from repro.core import parallel as parallel_module
from repro.core.parallel import _worker_search, partition_edges
from repro.decomp import validate_hd
from repro.decomp.extended import full_bitcomp
from repro.exceptions import SolverError, TimeoutExceeded
from repro.faults.supervise import WorkerProcess
from repro.hypergraph import Hypergraph, generators


def test_rejects_bad_configuration():
    with pytest.raises(SolverError):
        ParallelLogKDecomposer(num_workers=0)
    with pytest.raises(TypeError):
        ParallelLogKDecomposer(backend="thread")  # the option is gone


def test_single_worker_falls_back_to_sequential(cycle10):
    result = ParallelLogKDecomposer(num_workers=1).decompose(cycle10, 2)
    assert result.success
    validate_hd(result.decomposition)


@pytest.fixture(params=["process", "daemonic"])
def caller(request, monkeypatch):
    """Where ``decompose`` is called from: a process that may fork, or a
    daemonic one (a serving-layer worker), which runs the sequential search."""
    if request.param == "daemonic":
        monkeypatch.setattr(mp.current_process(), "daemon", True)


def test_the_fallback_names_the_parallel_decomposer(caller, cycle10):
    # One run path: the sequential fallback (one worker, or any number under
    # a daemonic caller) reports the decomposer that was asked for.
    workers = 2 if mp.current_process().daemon else 1
    result = ParallelLogKDecomposer(num_workers=workers).decompose_raw(cycle10, 2)
    assert result.success
    assert result.algorithm == ParallelLogKDecomposer.name


def test_parallel_positive_instance(caller, cycle10):
    decomposer = ParallelLogKDecomposer(num_workers=2, hybrid=False)
    result = decomposer.decompose_raw(cycle10, 2)
    assert result.success
    assert result.decomposition is not None
    validate_hd(result.decomposition)
    assert result.decomposition.width <= 2


def test_parallel_negative_instance(caller, cycle6):
    decomposer = ParallelLogKDecomposer(num_workers=2)
    result = decomposer.decompose_raw(cycle6, 1)
    assert not result.success
    assert not result.timed_out


def test_parallel_hybrid_mode(grid23):
    decomposer = ParallelLogKDecomposer(num_workers=2, hybrid=True, threshold=4)
    result = decomposer.decompose(grid23, 2)
    assert result.success
    validate_hd(result.decomposition)


def test_parallel_agrees_with_sequential():
    cases = [
        (generators.cycle(8), 1),
        (generators.cycle(8), 2),
        (generators.triangle_cascade(3), 2),
        (generators.clique(5), 2),
    ]
    for hypergraph, k in cases:
        sequential = LogKDecomposer().decompose(hypergraph, k).success
        parallel = ParallelLogKDecomposer(num_workers=3, hybrid=False).decompose(
            hypergraph, k
        )
        assert parallel.success == sequential


def test_partitioned_search_is_complete_unionwise(cycle10):
    """The union of the per-partition searches equals the full search.

    Worker i only explores top-level child labels whose smallest edge lies in
    partition i; here we check directly that for a positive instance at least
    one partition succeeds and for a negative one all partitions fail.
    """
    k_positive, k_negative = 2, 1
    partitions = partition_edges(cycle10.num_edges, 3)

    def run(partition, k):
        context = SearchContext(cycle10, k)
        search = LogKSearch(context, root_partition=partition)
        return search.search(full_bitcomp(cycle10), conn=0, allowed=cycle10.all_edges_mask)

    positives = [run(p, k_positive) for p in partitions]
    assert any(fragment is not None for fragment in positives)
    for fragment in positives:
        if fragment is not None:
            validate_hd(fragment_to_decomposition(cycle10, fragment))

    negatives = [run(p, k_negative) for p in partitions]
    assert all(fragment is None for fragment in negatives)


def test_workers_split_one_search_instead_of_repeating_it():
    """Work-efficiency guard: partitioning divides the work, it does not multiply it.

    Merged uncached expansions (``cache_misses``) at 2 and 4 workers stay
    within 1.3x the sequential hybrid's, at the default label budget.  The
    hybrid's budgeted det-k root runs once, in the coordinator, and every
    worker inherits its memo.  Below the partitioned root a subproblem is
    refuted once, by whichever worker meets it first, and the others read
    that from the shared :class:`~repro.core.refuted.RefutedTable` (which
    worker gets there first is a matter of timing, hence a bound and not a
    count).  The partitions' label streams are disjoint and complete, so
    together the workers try at least the sequential search's labels.
    """
    hard = generators.with_chords(generators.cycle(30), 4, seed=2)
    sequential = HybridDecomposer().decompose_raw(hard, 2)
    assert not sequential.success and not sequential.timed_out
    for workers in (2, 4):
        parallel = ParallelLogKDecomposer(num_workers=workers).decompose_raw(hard, 2)
        assert not parallel.success and not parallel.timed_out
        assert parallel.statistics.refutations_shared > 0
        assert parallel.statistics.cache_misses <= 1.3 * sequential.statistics.cache_misses
        assert sequential.statistics.labels_tried <= parallel.statistics.labels_tried


def _hybrid_share(host, k, partition, monkeypatch):
    """The default hybrid on one share of the root.

    Returns det-k's depth-1 outcome (``"found"``, ``"refuted"`` or
    ``"spent"``), the label streams of every depth-1 log-k child loop, and
    the fragment.
    """
    outcome, streams = [], []
    detk_search, child_labels = DetKSearch.search, LogKSearch._child_labels

    def detk_spy(self, comp, conn, allowed=None, depth=1, vertices=None):
        if depth > 1:
            return detk_search(self, comp, conn, allowed, depth, vertices)
        try:
            fragment = detk_search(self, comp, conn, allowed, depth, vertices)
        except _LabelBudgetSpent:
            outcome.append("spent")
            raise
        outcome.append("refuted" if fragment is None else "found")
        return fragment

    def logk_spy(self, comp, allowed_pool, comp_vertices, depth):
        labels = child_labels(self, comp, allowed_pool, comp_vertices, depth)
        if depth > 1:
            return labels
        stream = []
        streams.append(stream)

        def recorded():
            for label in labels:
                stream.append(label)
                yield label

        return recorded()

    with monkeypatch.context() as patch:
        patch.setattr(DetKSearch, "search", detk_spy)
        patch.setattr(LogKSearch, "_child_labels", logk_spy)
        fragment = HybridDecomposer().search(SearchContext(host, k), partition)
    return outcome, streams, fragment


#: clique(5) with a singleton subedge after each edge (hw 3).  At two workers
#: the odd share is all subedges, which domination drops: that worker's
#: share of log-k's root loop is empty, and its "no" comes at once.
_DOMINATED_ODD = Hypergraph(
    {
        name: scope
        for i, (u, v) in enumerate(itertools.combinations("abcde", 2))
        for name, scope in ((f"r{i}", u + v), (f"s{i}", u))
    }
)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(
    "host",
    [generators.clique(5), _DOMINATED_ODD, generators.with_chords(generators.cycle(30), 4, seed=2)],
    ids=["clique5", "dominated-odd", "cc30"],
)
def test_a_spent_budget_splits_log_ks_root_loop(host, workers, monkeypatch):
    """Phase 2's root streams are disjoint and complete, and "all fail" is a "no".

    Phase 1 never sees the partition: on every share det-k's root spends
    the budget as the sequential one does.  Every share's "no" then comes
    from log-k-decomp's balanced child loop, so the workers' "no"s together
    cover that one loop.
    """
    outcome, (sequential,), fragment = _hybrid_share(host, 2, None, monkeypatch)
    assert outcome == ["spent"] and fragment is None and sequential
    shares = [
        _hybrid_share(host, 2, partition, monkeypatch)
        for partition in partition_edges(host.num_edges, workers)
    ]
    for slot, (outcome, streams, fragment) in enumerate(shares):
        assert outcome == ["spent"] and fragment is None
        assert streams == [[label for label in sequential if label[0] % workers == slot]]
    assert sum(len(streams[0]) for _, streams, _ in shares) == len(sequential)
    parallel = ParallelLogKDecomposer(num_workers=workers)
    refuted = parallel.decompose_raw(host, 2)
    assert not refuted.success and not refuted.timed_out
    found = parallel.decompose_raw(host, 3)  # every host here has hw 3
    assert found.success
    validate_hd(found.decomposition)


def test_metric_instance_and_threshold_reach_every_worker(cycle10):
    """The workers run the hybrid the caller configured, not a default one.

    ``metric`` may be a :class:`SwitchMetric` instance, as on
    :class:`HybridDecomposer`; with EdgeCount and a threshold between the
    instance's size and its components' the root stays with log-k-decomp and
    only depth >= 2 is delegated, which no default setting does.
    """
    hard = generators.with_chords(generators.cycle(30), 4, seed=2)
    options = dict(metric=EdgeCountMetric(), threshold=12.0)
    hybrid = HybridDecomposer(**options)
    parallel = ParallelLogKDecomposer(num_workers=2, **options)
    found = parallel.decompose_raw(cycle10, 2)
    assert found.success and hybrid.decompose_raw(cycle10, 2).success
    validate_hd(found.decomposition)

    refuted = parallel.decompose_raw(hard, 2)
    assert not refuted.success and not refuted.timed_out
    sequential = hybrid.decompose_raw(hard, 2)
    assert not sequential.success
    labels = delegated = 0
    for partition in partition_edges(hard.num_edges, 2):
        context = SearchContext(hard, 2)  # no table: a partition on its own
        assert hybrid.search(context, partition) is None
        labels += context.stats.labels_tried
        delegated += context.stats.subproblems_delegated
    # What the workers share is timing-dependent; the bounds are not.
    assert sequential.statistics.labels_tried <= refuted.statistics.labels_tried <= labels
    assert 2 < refuted.statistics.subproblems_delegated <= delegated
    # The default hybrid is another search (det-k's budgeted root, then
    # log-k's first balanced split): an order of magnitude fewer labels here.
    default = ParallelLogKDecomposer(num_workers=2).decompose_raw(hard, 2)
    assert not default.success
    assert default.statistics.labels_tried < sequential.statistics.labels_tried / 10


# --------------------------------------------------------------------------- #
# the hybrid's phase 1 runs once, in the coordinator, before any fork
# --------------------------------------------------------------------------- #
#: At k=2 the hybrid's det-k root spends its label budget on both; the first
#: then refutes, the second finds.
_SPENT_REFUTE = generators.with_chords(generators.cycle(30), 4, seed=2)
_SPENT_FIND = generators.with_chords(generators.hypercycle(40, 4), 4, seed=1)


@pytest.fixture
def forks(monkeypatch):
    """What the coordinator forks: started workers and made refutation tables."""
    made = {"workers": [], "tables": []}
    start, table = WorkerProcess.start, parallel_module.RefutedTable

    def recording_start(worker):
        made["workers"].append((worker.index, worker.attempt))
        start(worker)

    def recording_table():
        made["tables"].append(table())
        return made["tables"][-1]

    monkeypatch.setattr(WorkerProcess, "start", recording_start)
    monkeypatch.setattr(parallel_module, "RefutedTable", recording_table)
    return made


@pytest.mark.parametrize(
    "host,k,success",
    [(generators.with_chords(generators.cycle(14), 3, seed=1), 2, True),
     (generators.with_chords(generators.cycle(14), 3, seed=1), 1, False)],
    ids=["cc14-find", "cc14-refute"],
)
def test_a_phase_one_answer_forks_nothing(host, k, success, forks):
    """det-k decides inside the budget: the coordinator's answer, no worker.

    The phase is unpartitioned, so its "no" is the sequential hybrid's and
    so are its counters.
    """
    parallel = ParallelLogKDecomposer(num_workers=2).decompose_raw(host, k)
    sequential = HybridDecomposer().decompose_raw(host, k)
    assert parallel.success is sequential.success is success and not parallel.timed_out
    assert forks == {"workers": [], "tables": []}
    for counter in ("labels_tried", "recursive_calls", "subproblems_delegated"):
        assert getattr(parallel.statistics, counter) == getattr(sequential.statistics, counter)
    if success:
        validate_hd(parallel.decomposition)


def test_a_spent_budget_forks_for_phase_two_only(tmp_path, monkeypatch, forks):
    """det-k's depth-1 loop runs once, in the coordinator; the workers run
    log-k's root loop, each in its own process.  Forked spies cannot append
    to the parent's lists, so both write their pid to a file."""
    detk_log, logk_log = tmp_path / "detk", tmp_path / "logk"
    detk_search, child_labels = DetKSearch.search, LogKSearch._child_labels

    def detk_spy(self, comp, conn, allowed=None, depth=1, vertices=None):
        if depth == 1:
            with open(detk_log, "a") as log:
                log.write(f"{os.getpid()}\n")
        return detk_search(self, comp, conn, allowed, depth, vertices)

    def logk_spy(self, comp, allowed_pool, comp_vertices, depth):
        if depth == 1:
            with open(logk_log, "a") as log:
                log.write(f"{os.getpid()}\n")
        return child_labels(self, comp, allowed_pool, comp_vertices, depth)

    monkeypatch.setattr(DetKSearch, "search", detk_spy)
    monkeypatch.setattr(LogKSearch, "_child_labels", logk_spy)
    result = ParallelLogKDecomposer(num_workers=2).decompose_raw(
        _SPENT_REFUTE, 2
    )
    assert not result.success and not result.timed_out
    assert forks["workers"] == [(0, 0), (1, 0)] and len(forks["tables"]) == 1
    assert detk_log.read_text().split() == [str(os.getpid())]
    workers = logk_log.read_text().split()
    assert len(workers) == 2 and str(os.getpid()) not in workers


def test_killed_hybrid_workers_are_respawned_and_run_succeeds(forks):
    """Respawns fork from the coordinator too: they inherit phase 1's memo."""
    from repro import faults

    sequential = HybridDecomposer().decompose_raw(_SPENT_FIND, 2)
    assert sequential.success
    rule = faults.FaultRule(point="parallel.worker", kill=True, where={"attempt": 0})
    with faults.injected(rule):
        result = ParallelLogKDecomposer(num_workers=2).decompose_raw(
            _SPENT_FIND, 2
        )
    assert result.success and not result.timed_out
    validate_hd(result.decomposition)
    assert result.decomposition.width <= 2
    assert result.statistics.worker_respawns == 2
    assert sorted(forks["workers"]) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_cancel_and_deadline_in_phase_one_fork_nothing(monkeypatch, forks):
    parallel = ParallelLogKDecomposer(num_workers=2)
    cancelled = threading.Event()
    cancelled.set()
    result = parallel.decompose_raw(generators.cycle(6), 1, Deadline(cancel_event=cancelled))
    assert result.timed_out and not result.success

    # The deadline passes during det-k's root loop, before the budget is spent.
    expand = DetKSearch._expand

    def slow(self, comp, conn, allowed, depth, vertices=None):
        if depth == 1:
            time.sleep(0.1)
        return expand(self, comp, conn, allowed, depth, vertices)

    monkeypatch.setattr(DetKSearch, "_expand", slow)
    result = parallel.decompose_raw(_SPENT_REFUTE, 2, Deadline.arm(0.05))
    assert result.timed_out and not result.success
    assert 0 < result.statistics.labels_tried <= 2 * _SPENT_REFUTE.num_edges
    assert forks == {"workers": [], "tables": []}


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.sampled_from([2, 3]))
def test_parallel_and_sequential_hybrid_decide_alike(seed, k, workers):
    hypergraph = generators.random_csp(8, 8, arity=3, seed=seed)
    sequential = HybridDecomposer().decompose_raw(hypergraph, k)
    result = ParallelLogKDecomposer(num_workers=workers).decompose_raw(
        hypergraph, k
    )
    assert not result.timed_out
    assert result.success == sequential.success
    if result.success:
        validate_hd(result.decomposition)
        assert result.decomposition.width <= k


def test_merge_covers_every_counter():
    """Holds by construction: ``merge`` walks the field declarations
    (``repro.counters``), so there is no counter it can forget."""
    counters = [f.name for f in dataclasses.fields(SearchStatistics) if f.type in ("int", int)]
    assert "refutations_shared" in counters and "max_recursion_depth" in counters
    for name in counters:
        total = SearchStatistics()
        total.merge(SearchStatistics(**{name: 3}))
        assert getattr(total, name) == 3, name


def test_worker_statistics_are_merged(cycle10):
    result = ParallelLogKDecomposer(num_workers=2, hybrid=False).decompose(cycle10, 2)
    assert result.statistics.recursive_calls > 0


# --------------------------------------------------------------------------- #
# a caller that may not fork runs the sequential search
# --------------------------------------------------------------------------- #
def test_daemonic_caller_starts_no_thread_and_forks_no_child(monkeypatch):
    hard = generators.with_chords(generators.cycle(30), 4, seed=2)
    monkeypatch.setattr(mp.current_process(), "daemon", True)
    seen = []

    class Watching(SearchContext):
        def check_timeout(self):
            seen.append((threading.active_count(), len(mp.active_children())))
            super().check_timeout()

    monkeypatch.setattr("repro.core.base.SearchContext", Watching)
    before = (threading.active_count(), len(mp.active_children()))
    parallel = ParallelLogKDecomposer(num_workers=2).decompose_raw(hard, 2)
    sequential = HybridDecomposer().decompose_raw(hard, 2)
    assert seen and set(seen) == {before}  # sampled all through both searches
    assert not parallel.success and not parallel.timed_out
    # One sequential search, not one per partition.
    for counter in ("labels_tried", "recursive_calls", "subproblems_delegated"):
        assert getattr(parallel.statistics, counter) == getattr(sequential.statistics, counter)


# --------------------------------------------------------------------------- #
# cooperative cancellation and worker failures
# --------------------------------------------------------------------------- #
def test_search_context_honours_cancel_event(cycle10):
    event = threading.Event()
    context = SearchContext(cycle10, 2, Deadline(cancel_event=event))
    for _ in range(200):
        context.check_timeout()  # not set: never raises
    event.set()
    with pytest.raises(TimeoutExceeded):
        context.force_timeout_check()
    with pytest.raises(TimeoutExceeded):
        for _ in range(200):  # throttled check trips within one stride
            context.check_timeout()


def test_worker_bug_is_logged_and_degrades_to_undecided(cycle10, monkeypatch, caplog):
    # A TypeError in one worker used to be indistinguishable from a timeout.
    # It still must not become an answer, but it has to leave a traceback.
    original = LogKSearch.search

    def broken(self, comp, conn, allowed, depth=1):
        if 0 in self.root_partition:
            raise TypeError("injected worker bug")
        return original(self, comp, conn, allowed, depth)

    monkeypatch.setattr(LogKSearch, "search", broken)
    base = LogKDecomposer()
    with caplog.at_level("ERROR", logger="repro.parallel"):
        healthy = _worker_search(base.search, cycle10, 1, [1, 3, 5, 7, 9], None)
        faulty = _worker_search(base.search, cycle10, 1, [0, 2, 4, 6, 8], None)
    # The healthy worker refuted its share; the broken share is unknown.
    assert healthy[:3] == (False, False, None)
    assert faulty[:3] == (True, False, None)
    failures = [r for r in caplog.records if r.name == "repro.parallel"]
    assert len(failures) == 1 and failures[0].exc_info[0] is TypeError
    assert "injected worker bug" in caplog.text
    # The coordinator (forked workers inherit the patch) reports undecided.
    refuted = ParallelLogKDecomposer(num_workers=2, hybrid=False).decompose_raw(
        cycle10, 1
    )
    assert not refuted.success and refuted.timed_out

    # A timed-out worker stays quiet.
    caplog.clear()
    monkeypatch.setattr(LogKSearch, "search", original)
    hard = generators.with_chords(generators.cycle(60), 5, seed=4)
    with caplog.at_level("ERROR", logger="repro.parallel"):
        late = _worker_search(
            base.search, hard, 2, list(range(hard.num_edges)), Deadline.arm(0.01)
        )
    assert late[:3] == (True, False, None) and not caplog.records


# --------------------------------------------------------------------------- #
# worker supervision: crash detection, respawn, abandonment
# --------------------------------------------------------------------------- #
def test_killed_process_worker_is_respawned_and_run_succeeds(cycle10):
    from repro import faults

    # Every first-attempt worker is OOM-killed at startup; the supervisor
    # must detect the silent deaths, respawn each partition once, and the
    # replacements (attempt 1 no longer matches the rule) decide the run.
    rule = faults.FaultRule(point="parallel.worker", kill=True, where={"attempt": 0})
    decomposer = ParallelLogKDecomposer(num_workers=2, hybrid=False)
    with faults.injected(rule):
        result = decomposer.decompose_raw(cycle10, 2)
    assert result.success
    assert not result.timed_out
    validate_hd(result.decomposition)
    assert result.statistics.worker_respawns == 2


def test_a_respawn_gets_what_is_left_of_the_budget(cycle10, monkeypatch):
    from repro import faults
    from repro.faults.supervise import WorkerProcess

    # One absolute deadline per run: an attempt's budget is what remains of
    # the caller's, not the whole of it again.
    budgets = {}
    start = WorkerProcess.start

    def recording(worker):
        # _worker_main's arguments end in (..., partition, deadline, refuted).
        deadline = worker.spawn(worker)["args"][-2]
        budgets[worker.index, worker.attempt] = deadline and deadline.remaining()
        start(worker)

    monkeypatch.setattr(WorkerProcess, "start", recording)
    rule = faults.FaultRule(point="parallel.worker", kill=True, where={"attempt": 0})
    decomposer = ParallelLogKDecomposer(num_workers=2, hybrid=False)
    with faults.injected(rule):
        result = decomposer.decompose_raw(cycle10, 2, Deadline.arm(30.0))
    assert result.success and result.statistics.worker_respawns == 2
    for slot in (0, 1):
        assert 0 < budgets[slot, 1] < budgets[slot, 0] <= 30.0
    # No budget, no deadline.
    decomposer.decompose_raw(cycle10, 2)
    assert budgets[0, 0] is None


def test_respawn_budget_exhausted_degrades_to_undecided(cycle10):
    from repro import faults
    from repro.core.parallel import ParallelLogKDecomposer as P

    # Every attempt dies: after the per-slot budget the partitions are
    # abandoned and the run reports undecided (timed out), not a wrong "no".
    rule = faults.FaultRule(point="parallel.worker", kill=True)
    decomposer = ParallelLogKDecomposer(num_workers=2, hybrid=False)
    with faults.injected(rule):
        result = decomposer.decompose_raw(cycle10, 2)
    assert not result.success
    assert result.timed_out
    assert result.statistics.worker_respawns == 2 * P._MAX_RESPAWNS_PER_SLOT
