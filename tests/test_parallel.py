"""Unit tests for the parallel search-space-partitioning backend."""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing as mp
import threading

import pytest

from repro.core import HybridDecomposer, LogKDecomposer, ParallelLogKDecomposer
from repro.core.logk import LogKSearch
from repro.core.base import SearchContext, SearchStatistics
from repro.core import hybrid as hybrid_module
from repro.core.detk import DetKSearch, _LabelBudgetSpent
from repro.core.fragments import fragment_to_decomposition
from repro.core.hybrid import EdgeCountMetric
from repro.core.parallel import _worker_search, partition_edges
from repro.decomp import validate_hd
from repro.decomp.extended import full_bitcomp
from repro.exceptions import SolverError, TimeoutExceeded
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


def test_parallel_positive_instance(caller, cycle10):
    decomposer = ParallelLogKDecomposer(num_workers=2, hybrid=False, use_engine=False)
    result = decomposer.decompose(cycle10, 2)
    assert result.success
    assert result.decomposition is not None
    validate_hd(result.decomposition)
    assert result.decomposition.width <= 2


def test_parallel_negative_instance(caller, cycle6):
    decomposer = ParallelLogKDecomposer(num_workers=2, use_engine=False)
    result = decomposer.decompose(cycle6, 1)
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


def _detk_root_labels(host, k, partition, domination):
    """The labels det-k-decomp's depth-1 loop tries when every child fails."""
    context = SearchContext(host, k)
    search = DetKSearch(context, subedge_domination=domination, root_partition=partition)
    recurse = search.search
    search.search = lambda comp, conn, allowed=None, depth=1, vertices=None: (
        recurse(comp, conn, allowed, depth) if depth == 1 else None
    )
    tried = []
    enumerator = context.enumerator
    for method in ("labels", "labels_for_partition"):

        def spy(*args, _inner=getattr(enumerator, method), **kwargs):
            for label in _inner(*args, **kwargs):
                tried.append(label)
                yield label

        setattr(enumerator, method, spy)
    assert search.search(full_bitcomp(host), conn=0, allowed=host.all_edges_mask) is None
    return tried


#: Subedges inside a hyperedge: domination drops pool edges, so some members
#: of a partition never start a label.
_SUBEDGES = Hypergraph(
    {"big": "abc", "ab": "ab", "bc": "bc", "cd": "cd", "de": "de", "ea": "ea", "ce": "ce"}
)


@pytest.mark.parametrize("domination", [True, False], ids=["dominated", "plain"])
@pytest.mark.parametrize(
    "host,k",
    [
        (generators.cycle(10), 2),
        (generators.with_chords(generators.cycle(14), 3, seed=1), 2),
        (generators.grid(3, 3), 2),
        (_SUBEDGES, 1),
    ],
    ids=["cycle10", "cc14", "grid3x3", "subedges"],
)
def test_detk_root_partition_streams_are_disjoint_and_complete(host, k, domination):
    """The det-k root honours the partition exactly as the log-k root does.

    Under root delegation (every ledger instance is below the hybrid
    threshold) det-k-decomp runs the depth-1 label loop; its per-partition
    streams must be pairwise disjoint and their union the sequential stream,
    or "all workers fail" is not a sound "no".
    """
    sequential = _detk_root_labels(host, k, None, domination)
    assert sequential and len(set(sequential)) == len(sequential)
    for workers in (2, 3):
        streams = [
            _detk_root_labels(host, k, partition, domination)
            for partition in partition_edges(host.num_edges, workers)
        ]
        for slot, stream in enumerate(streams):
            # Disjoint by construction of the expected value, and each a
            # subsequence of the one agreed order.
            assert stream == [label for label in sequential if label[0] % workers == slot]
        assert sum(len(stream) for stream in streams) == len(sequential)


def test_workers_split_one_search_instead_of_repeating_it(monkeypatch):
    """Work-efficiency guard: partitioning divides the work, it does not multiply it.

    Merged uncached expansions (``cache_misses``) at 2 and 4 workers stay
    within 1.3x the sequential hybrid's: a subproblem below the partitioned
    root is refuted once, by whichever worker meets it first, and the others
    read that from the shared :class:`~repro.core.refuted.RefutedTable`
    (which worker gets there first is a matter of timing, hence a bound and
    not a count).  The partitions' label streams are disjoint and complete,
    so together the workers try at least the sequential search's labels.
    The hybrid's phase-1 label budget is per worker — on this 34-edge host
    worth as much as the log-k search itself — so the guard is measured with
    a zero budget, and the budget's own cost is bounded separately: at most
    one budget per worker on top.
    """
    hard = generators.with_chords(generators.cycle(30), 4, seed=2)
    budget = hybrid_module._DETK_LABELS_PER_EDGE * hard.num_edges
    sequential = HybridDecomposer(use_engine=False).decompose(hard, 2)
    assert not sequential.success and not sequential.timed_out
    for workers in (2, 4):
        parallel = ParallelLogKDecomposer(num_workers=workers, use_engine=False).decompose(hard, 2)
        assert not parallel.success and not parallel.timed_out
        assert sequential.statistics.labels_tried <= parallel.statistics.labels_tried
        assert parallel.statistics.labels_tried <= (
            sequential.statistics.labels_tried + workers * (budget + 1)
        )
    monkeypatch.setattr(hybrid_module, "_DETK_LABELS_PER_EDGE", 0)  # forks inherit it
    sequential = HybridDecomposer(use_engine=False).decompose(hard, 2)
    for workers in (2, 4):
        parallel = ParallelLogKDecomposer(num_workers=workers, use_engine=False).decompose(hard, 2)
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
        fragment = HybridDecomposer(use_engine=False).search(SearchContext(host, k), partition)
    return outcome, streams, fragment


#: clique(5) with a singleton subedge after each edge (hw 3).  At two workers
#: the odd share is all subedges, which domination drops, so det-k refutes
#: that share inside the label budget while the even share spends it.
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

    Every share's "no" comes from log-k-decomp's balanced child loop —
    also a share det-k refuted inside the budget — so the workers' "no"s
    together cover that one loop.
    """
    outcome, (sequential,), fragment = _hybrid_share(host, 2, None, monkeypatch)
    assert outcome == ["spent"] and fragment is None and sequential
    shares = [
        _hybrid_share(host, 2, partition, monkeypatch)
        for partition in partition_edges(host.num_edges, workers)
    ]
    for slot, (outcome, streams, fragment) in enumerate(shares):
        assert outcome in (["spent"], ["refuted"]) and fragment is None
        assert streams == [[label for label in sequential if label[0] % workers == slot]]
    assert sum(len(streams[0]) for _, streams, _ in shares) == len(sequential)
    parallel = ParallelLogKDecomposer(num_workers=workers, use_engine=False).decompose(host, 2)
    assert not parallel.success and not parallel.timed_out


def test_a_share_refuted_inside_the_budget_goes_on_to_log_k(monkeypatch):
    """A phase-1 "no" on a share is not kept.

    One worker's det-k share is refuted inside the budget, the other's
    spends it; the first still runs log-k's child loop on its share, or the
    two "no"s would come from two different loops and cover neither.
    """
    shares = [
        _hybrid_share(_DOMINATED_ODD, 2, partition, monkeypatch)
        for partition in partition_edges(_DOMINATED_ODD.num_edges, 2)
    ]
    assert [outcome for outcome, _, _ in shares] == [["spent"], ["refuted"]]
    assert all(len(streams) == 1 and fragment is None for _, streams, fragment in shares)
    parallel = ParallelLogKDecomposer(num_workers=2, use_engine=False)
    assert not parallel.decompose(_DOMINATED_ODD, 2).success
    found = parallel.decompose(_DOMINATED_ODD, 3)
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
    hybrid = HybridDecomposer(use_engine=False, **options)
    parallel = ParallelLogKDecomposer(num_workers=2, use_engine=False, **options)
    found = parallel.decompose(cycle10, 2)
    assert found.success and hybrid.decompose(cycle10, 2).success
    validate_hd(found.decomposition)

    refuted = parallel.decompose(hard, 2)
    assert not refuted.success and not refuted.timed_out
    sequential = hybrid.decompose(hard, 2)
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
    default = ParallelLogKDecomposer(num_workers=2, use_engine=False).decompose(hard, 2)
    assert not default.success
    assert default.statistics.labels_tried < sequential.statistics.labels_tried / 10


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
    parallel = ParallelLogKDecomposer(num_workers=2, use_engine=False).decompose_raw(hard, 2)
    sequential = HybridDecomposer(use_engine=False).decompose_raw(hard, 2)
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
    context = SearchContext(cycle10, 2, cancel_event=event)
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
    base = LogKDecomposer(use_engine=False)
    with caplog.at_level("ERROR", logger="repro.parallel"):
        healthy = _worker_search(base, cycle10, 1, [1, 3, 5, 7, 9], None)
        faulty = _worker_search(base, cycle10, 1, [0, 2, 4, 6, 8], None)
    # The healthy worker refuted its share; the broken share is unknown.
    assert healthy[:3] == (False, False, None)
    assert faulty[:3] == (True, False, None)
    failures = [r for r in caplog.records if r.name == "repro.parallel"]
    assert len(failures) == 1 and failures[0].exc_info[0] is TypeError
    assert "injected worker bug" in caplog.text
    # The coordinator (forked workers inherit the patch) reports undecided.
    refuted = ParallelLogKDecomposer(num_workers=2, hybrid=False, use_engine=False).decompose(
        cycle10, 1
    )
    assert not refuted.success and refuted.timed_out

    # A timed-out worker stays quiet.
    caplog.clear()
    monkeypatch.setattr(LogKSearch, "search", original)
    hard = generators.with_chords(generators.cycle(60), 5, seed=4)
    with caplog.at_level("ERROR", logger="repro.parallel"):
        late = _worker_search(base, hard, 2, list(range(hard.num_edges)), 0.01)
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
    decomposer = ParallelLogKDecomposer(num_workers=2, hybrid=False, use_engine=False)
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
        # _worker_main's arguments end in (..., partition, timeout, refuted).
        budgets[worker.index, worker.attempt] = worker.spawn(worker)["args"][-2]
        start(worker)

    monkeypatch.setattr(WorkerProcess, "start", recording)
    rule = faults.FaultRule(point="parallel.worker", kill=True, where={"attempt": 0})
    decomposer = ParallelLogKDecomposer(num_workers=2, hybrid=False, use_engine=False)
    with faults.injected(rule):
        result = decomposer.decompose_raw(cycle10, 2, timeout=30.0)
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
    decomposer = ParallelLogKDecomposer(num_workers=2, hybrid=False, use_engine=False)
    with faults.injected(rule):
        result = decomposer.decompose_raw(cycle10, 2)
    assert not result.success
    assert result.timed_out
    assert result.statistics.worker_respawns == 2 * P._MAX_RESPAWNS_PER_SLOT
