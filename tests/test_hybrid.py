"""Unit tests for the hybrid log-k-decomp / det-k-decomp strategy."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.corpus import generate_corpus
from repro.core import DetKDecomposer, HybridDecomposer, LogKDecomposer
from repro.core import hybrid as hybrid_module
from repro.core.base import SearchContext
from repro.core.codec import decomposition_to_json
from repro.core.hybrid import EdgeCountMetric, WeightedCountMetric, make_metric
from repro.core.logk import LogKSearch
from repro.decomp import validate_hd
from repro.decomp.extended import full_bitcomp
from repro.exceptions import SolverError
from repro.hypergraph import Hypergraph, generators


def test_metric_factory():
    assert isinstance(make_metric("EdgeCount"), EdgeCountMetric)
    assert isinstance(make_metric("edgecount"), EdgeCountMetric)
    assert isinstance(make_metric("WeightedCount"), WeightedCountMetric)
    assert isinstance(make_metric("weighted"), WeightedCountMetric)
    with pytest.raises(SolverError):
        make_metric("bogus")


def test_edge_count_metric_value():
    h = generators.cycle(8)
    metric = EdgeCountMetric()
    assert metric.value(h, full_bitcomp(h), 3) == 8.0


def test_weighted_count_metric_value():
    h = generators.cycle(8)  # 8 binary edges: average size 2
    metric = WeightedCountMetric()
    assert metric.value(h, full_bitcomp(h), 3) == pytest.approx(8 * 3 / 2)
    empty = full_bitcomp(h).difference(full_bitcomp(h))
    assert metric.value(h, empty, 3) == 0.0


def test_hybrid_accepts_metric_instances():
    decomposer = HybridDecomposer(metric=EdgeCountMetric(), threshold=5)
    result = decomposer.decompose(generators.cycle(8), 2)
    assert result.success
    validate_hd(result.decomposition)


def test_hybrid_rejects_unknown_metric():
    with pytest.raises(SolverError):
        HybridDecomposer(metric="nope")


@pytest.mark.parametrize("threshold", [0.0, 5.0, 1000.0])
def test_hybrid_answers_do_not_depend_on_threshold(threshold):
    for hypergraph, k, expected in [
        (generators.cycle(9), 1, False),
        (generators.cycle(9), 2, True),
        (generators.grid(2, 4), 2, True),
        (generators.clique(5), 2, False),
    ]:
        result = HybridDecomposer(threshold=threshold).decompose(hypergraph, k)
        assert result.success == expected
        if expected:
            validate_hd(result.decomposition)
            assert result.decomposition.width <= k


def test_threshold_zero_never_delegates():
    result = HybridDecomposer(threshold=0.0).decompose(generators.cycle(12), 2)
    assert result.success
    assert result.statistics.subproblems_delegated == 0


def test_large_threshold_delegates_immediately():
    result = HybridDecomposer(threshold=1e9).decompose(generators.cycle(12), 2)
    assert result.success
    assert result.statistics.subproblems_delegated >= 1


def test_intermediate_threshold_mixes_the_engines():
    # With a threshold between the full size and the base-case size the search
    # starts with balanced separators and finishes with det-k-decomp.
    h = generators.cycle(16)
    result = HybridDecomposer(metric="EdgeCount", threshold=6).decompose(h, 2)
    assert result.success
    assert result.statistics.subproblems_delegated >= 1
    validate_hd(result.decomposition)


def test_hybrid_agrees_with_logk_on_medium_instances():
    cases = [generators.triangle_cascade(4), generators.grid(3, 3), generators.hypercycle(5, 3)]
    for hypergraph in cases:
        for k in (1, 2, 3):
            hybrid = HybridDecomposer(metric="EdgeCount", threshold=4).decompose(hypergraph, k)
            logk = LogKDecomposer().decompose(hypergraph, k)
            assert hybrid.success == logk.success, (hypergraph.name, k)


def test_hybrid_timeout():
    result = HybridDecomposer(timeout=0.0).decompose(generators.clique(7), 3)
    assert result.timed_out


#: random_csp(9, 10, arity=3, seed=5007): the instance from ROADMAP.md on
#: which the hybrid decomposer used to emit an HD violating condition 4 (the
#: special condition) — the det-k leaf engine ignored log-k's allowed-edge
#: set, so an "up" fragment above a stitched separator could put an edge of
#: the component below into a λ-label.
CONDITION4_REGRESSION_EDGES = {
    "c0": ["x2", "x4", "x5"], "c1": ["x3", "x5", "x8"], "c2": ["x2", "x3", "x1"],
    "c3": ["x2", "x4", "x3"], "c4": ["x2", "x6", "x1"], "c5": ["x7", "x4", "x3"],
    "c6": ["x2", "x3", "x8"], "c7": ["x7", "x2", "x5"], "c8": ["x0", "x2", "x6"],
    "c9": ["x0", "x7", "x5"],
}


@pytest.mark.parametrize("through_engine", [False, True])
def test_detk_delegation_respects_allowed_edges(through_engine):
    h = Hypergraph(CONDITION4_REGRESSION_EDGES)
    decomposer = HybridDecomposer(metric="EdgeCount", threshold=4)
    run = decomposer.decompose if through_engine else decomposer.decompose_raw
    result = run(h, 2)
    assert result.success
    validate_hd(result.decomposition)
    assert result.decomposition.width <= 2


# --------------------------------------------------------------------------- #
# below the threshold at the root: det-k within a label budget, then log-k
# makes the first balanced split
# --------------------------------------------------------------------------- #
def _budget(hypergraph):
    return hybrid_module._DETK_LABELS_PER_EDGE * hypergraph.num_edges


@pytest.fixture
def child_loop_depths(monkeypatch):
    """The depths at which log-k-decomp runs its child loop, in call order."""
    depths = []
    child_labels = LogKSearch._child_labels

    def spy(self, comp, allowed_pool, comp_vertices, depth):
        depths.append(depth)
        return child_labels(self, comp, allowed_pool, comp_vertices, depth)

    monkeypatch.setattr(LogKSearch, "_child_labels", spy)
    return depths


@pytest.mark.parametrize(
    "hypergraph,k",
    [(generators.cycle(12), 2), (generators.grid(3, 3), 2), (generators.cycle(9), 1)],
    ids=["cycle12-find", "grid33-find", "cycle9-refute"],
)
def test_inside_the_budget_det_k_decides_alone(hypergraph, k, child_loop_depths):
    hybrid = HybridDecomposer().decompose_raw(hypergraph, k)
    detk = DetKDecomposer().decompose_raw(hypergraph, k)
    assert hybrid.success is detk.success and not hybrid.timed_out
    assert hybrid.statistics.labels_tried == detk.statistics.labels_tried <= _budget(hypergraph)
    assert hybrid.statistics.subproblems_delegated == 1  # the root
    assert child_loop_depths == []  # log-k never ran
    if hybrid.success:
        assert decomposition_to_json(hybrid.decomposition) == decomposition_to_json(
            detk.decomposition
        )


def test_a_spent_budget_hands_the_root_to_log_k_and_refutes(child_loop_depths):
    clique = generators.clique(5)
    assert DetKDecomposer().decompose_raw(clique, 2).statistics.labels_tried > (
        _budget(clique)
    )
    result = HybridDecomposer().decompose_raw(clique, 2)
    assert not result.success and not result.timed_out
    # Phase 2's predicate keeps the root with log-k: its child loop runs at
    # depth 1, and det-k takes only the subproblems below it.
    assert child_loop_depths[0] == 1 and child_loop_depths.count(1) == 1
    assert result.statistics.subproblems_delegated > 1


@pytest.mark.parametrize(
    "hypergraph,k",
    [(generators.grid(3, 5), 2), (generators.with_chords(generators.cycle(20), 3, seed=5), 2)],
    ids=["grid35", "cc20"],
)
def test_a_spent_budget_still_finds(hypergraph, k, monkeypatch, child_loop_depths):
    monkeypatch.setattr(hybrid_module, "_DETK_LABELS_PER_EDGE", 0)
    result = HybridDecomposer().decompose_raw(hypergraph, k)
    assert result.success
    validate_hd(result.decomposition)
    assert result.decomposition.width <= k
    assert child_loop_depths[0] == 1


def test_a_root_above_the_threshold_is_no_phase_one_question():
    hypergraph = generators.with_chords(generators.cycle(30), 4, seed=2)
    context = SearchContext(hypergraph, 2)
    detk, decided, fragment = HybridDecomposer(threshold=0).detk_phase(context)
    assert (decided, fragment) == (False, None) and detk.context is context
    assert context.stats.labels_tried == context.stats.subproblems_delegated == 0


_SEARCH_COUNTERS = (
    "recursive_calls", "max_recursion_depth", "labels_tried",
    "cache_hits", "cache_misses", "subproblems_delegated",
)


@pytest.mark.parametrize("k", [2, 3], ids=["spent-refute", "decided-find"])
def test_the_two_phases_are_the_search(k):
    """Phase 2 may run on another context (a parallel worker's): it takes
    phase 1's det-k along, memo and all, and the two contexts' search
    counters add up to the sequential search's.  (The enumerator's kernel
    memos are per context, so ``bitset_memo_hits`` may not.)"""
    def host():  # a fresh one each: hosts cache their mask tables
        return generators.with_chords(generators.cycle(30), 4, seed=2)

    hybrid = HybridDecomposer()
    whole = SearchContext(host(), k)
    expected = hybrid.search(whole)
    hypergraph = host()
    first, second = SearchContext(hypergraph, k), SearchContext(hypergraph, k)
    detk, decided, fragment = hybrid.detk_phase(first)
    assert decided is (k == 3)
    if not decided:
        fragment = hybrid.logk_phase(detk, second)
        assert detk.context is second
    assert (fragment is None) is (expected is None)
    first.stats.merge(second.stats)
    for counter in _SEARCH_COUNTERS:
        assert getattr(first.stats, counter) == getattr(whole.stats, counter), counter


def _decide_alike(hypergraph, k):
    answers = {}
    for decomposer in (HybridDecomposer, DetKDecomposer, LogKDecomposer):
        result = decomposer(timeout=60).decompose_raw(hypergraph, k)
        assert not result.timed_out
        if result.success:
            validate_hd(result.decomposition)
            assert result.decomposition.width <= k
        answers[decomposer.name] = result.success
    assert len(set(answers.values())) == 1, (hypergraph.name, k, answers)


#: The tiny corpus up to 20 edges; log-k alone needs seconds beyond that.
_TINY = [i.hypergraph for i in generate_corpus("tiny", 0) if i.hypergraph.num_edges <= 20]


@pytest.mark.parametrize("per_edge", [None, 0], ids=["default-budget", "spent-budget"])
def test_hybrid_detk_and_logk_decide_alike_on_the_tiny_corpus(per_edge, monkeypatch):
    if per_edge is not None:
        monkeypatch.setattr(hybrid_module, "_DETK_LABELS_PER_EDGE", per_edge)
    for hypergraph in _TINY:
        for k in range(1, 5):
            _decide_alike(hypergraph, k)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000), st.integers(1, 3), st.sampled_from([None, 0, 1]))
def test_hybrid_detk_and_logk_decide_alike_on_random_csps(seed, k, per_edge):
    hypergraph = generators.random_csp(7, 7, arity=3, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        if per_edge is not None:
            patch.setattr(hybrid_module, "_DETK_LABELS_PER_EDGE", per_edge)
        _decide_alike(hypergraph, k)
