"""Unit tests for the shared decomposer infrastructure (core.base)."""

from __future__ import annotations

import pytest

from repro.core import DetKDecomposer, LogKDecomposer
from repro.core.base import SearchContext, SearchStatistics
from repro.deadline import Deadline
from repro.exceptions import SolverError, TimeoutExceeded
from repro.hypergraph import Hypergraph, generators


def test_statistics_record_call():
    stats = SearchStatistics()
    stats.record_call(1)
    stats.record_call(3)
    stats.record_call(2)
    assert stats.recursive_calls == 3
    assert stats.max_recursion_depth == 3


def test_statistics_merge():
    a = SearchStatistics(recursive_calls=2, max_recursion_depth=4, labels_tried=10)
    b = SearchStatistics(recursive_calls=3, max_recursion_depth=2, cache_hits=1)
    a.merge(b)
    assert a.recursive_calls == 5
    assert a.max_recursion_depth == 4
    assert a.labels_tried == 10
    assert a.cache_hits == 1


def test_search_context_rejects_bad_k(cycle6):
    with pytest.raises(SolverError):
        SearchContext(cycle6, 0)


def test_search_context_timeout(cycle6):
    context = SearchContext(cycle6, 2, Deadline.arm(0.0))
    with pytest.raises(TimeoutExceeded):
        context.force_timeout_check()


def test_search_context_no_timeout(cycle6):
    context = SearchContext(cycle6, 2, deadline=None)
    for _ in range(500):
        context.check_timeout()
    context.force_timeout_check()


def test_decompose_rejects_empty_hypergraph():
    empty = Hypergraph({})
    with pytest.raises(SolverError):
        LogKDecomposer().decompose(empty, 1)
    with pytest.raises(SolverError):
        DetKDecomposer().decompose(empty, 1)


def test_decompose_rejects_bad_width(cycle6):
    with pytest.raises(SolverError):
        LogKDecomposer().decompose(cycle6, 0)


def test_result_properties(cycle6):
    result = LogKDecomposer().decompose(cycle6, 2)
    assert result.success
    assert result.width == 2
    assert result.decided
    assert not result.timed_out
    assert result.elapsed >= 0
    assert "log-k-decomp" in repr(result)


def test_result_failure_has_no_width(cycle6):
    result = LogKDecomposer().decompose(cycle6, 1)
    assert not result.success
    assert result.width is None
    assert result.decided


def test_timeout_marks_result(clique5):
    # An absurdly small budget forces a timeout on a non-trivial search.
    result = DetKDecomposer(timeout=0.0).decompose(generators.clique(7), 3)
    assert result.timed_out
    assert not result.success
    assert not result.decided
    assert result.width is None
    assert "timeout" in repr(result)


def test_repr_mentions_timeout():
    assert "timeout=5" in repr(LogKDecomposer(timeout=5))


def test_statistics_are_populated(cycle10):
    result = LogKDecomposer().decompose(cycle10, 2)
    stats = result.statistics
    assert stats.recursive_calls > 0
    assert stats.max_recursion_depth >= 1
    assert stats.labels_tried > 0
