"""Unit tests for the hybrid log-k-decomp / det-k-decomp strategy."""

from __future__ import annotations

import pytest

from repro.core import HybridDecomposer, LogKDecomposer
from repro.core.hybrid import EdgeCountMetric, WeightedCountMetric, make_metric
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


@pytest.mark.parametrize("use_engine", [False, True])
def test_detk_delegation_respects_allowed_edges(use_engine):
    h = Hypergraph(CONDITION4_REGRESSION_EDGES)
    result = HybridDecomposer(
        metric="EdgeCount", threshold=4, use_engine=use_engine
    ).decompose(h, 2)
    assert result.success
    validate_hd(result.decomposition)
    assert result.decomposition.width <= 2
