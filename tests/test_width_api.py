"""Unit tests for the high-level width API and the algorithm registry."""

from __future__ import annotations

import pytest

from repro import decompose, hypertree_width, is_width_at_most, make_decomposer
from repro.core.detk import DetKDecomposer
from repro.core.width import smallest_width
from repro.decomp import validate_hd
from repro.exceptions import SolverError, TimeoutExceeded
from repro.hypergraph import Hypergraph, generators
from repro.pipeline import registry
from repro.query import QueryEngine


def test_registry_contains_all_algorithms():
    assert set(registry.available()) == {"logk", "logk-basic", "detk", "hybrid", "parallel", "ghd"}


def test_make_decomposer_by_name():
    decomposer = make_decomposer("detk", timeout=1.0)
    assert isinstance(decomposer, DetKDecomposer)
    assert decomposer.timeout == 1.0


def test_make_decomposer_unknown_name():
    with pytest.raises(SolverError):
        make_decomposer("quantum")


def test_decompose_helper(cycle6):
    result = decompose(cycle6, 2)
    assert result.success
    validate_hd(result.decomposition)


def test_is_width_at_most(cycle6):
    assert is_width_at_most(cycle6, 2) is True
    assert is_width_at_most(cycle6, 1) is False
    assert is_width_at_most(generators.clique(7), 3, timeout=0.0) is None


def test_hypertree_width_acyclic_shortcut(path5):
    width, decomposition = hypertree_width(path5)
    assert width == 1
    assert decomposition.width == 1
    validate_hd(decomposition)


def test_hypertree_width_cyclic(cycle6):
    width, decomposition = hypertree_width(cycle6)
    assert width == 2
    validate_hd(decomposition)


def test_hypertree_width_respects_max_width():
    width, decomposition = hypertree_width(generators.clique(6), max_width=2)
    assert width is None
    assert decomposition is None


def test_hypertree_width_with_explicit_algorithm(cycle6):
    width, _ = hypertree_width(cycle6, algorithm="detk")
    assert width == 2
    width, _ = hypertree_width(cycle6, algorithm="logk")
    assert width == 2


def test_hypertree_width_rejects_empty():
    with pytest.raises(SolverError):
        hypertree_width(Hypergraph({}))


def test_hypertree_width_timeout_returns_none():
    width, decomposition = hypertree_width(generators.clique(7), timeout=0.0)
    assert width is None and decomposition is None


def test_top_level_exports():
    import repro

    assert repro.__version__
    assert callable(repro.decompose)
    assert callable(repro.hypertree_width)
    assert repro.Hypergraph is Hypergraph


def test_smallest_width_raises_on_timeout():
    with pytest.raises(TimeoutExceeded, match="time budget"):
        smallest_width(generators.clique(7), timeout=0.0)
    assert smallest_width(generators.clique(6), max_width=2) == (None, None)
    assert smallest_width(generators.cycle(6))[0] == 2


@pytest.mark.parametrize("max_width", [0, -5])
def test_width_bound_below_one_is_rejected(max_width):
    # The acyclic shortcut answers width 1 without a search, so it must not
    # run under a bound it would exceed; every route raises the same error.
    for hypergraph in (generators.path(4), generators.cycle(6)):
        with pytest.raises(SolverError, match="max_width"):
            smallest_width(hypergraph, max_width=max_width)
        with pytest.raises(SolverError, match="max_width"):
            hypertree_width(hypergraph, max_width=max_width)
    with pytest.raises(SolverError, match="max_width"):
        QueryEngine(max_width=max_width)
