"""Unit tests for the BalancedGo-style GHD decomposer."""

from __future__ import annotations

import pytest

from repro.core import BalancedGHDDecomposer, LogKDecomposer
from repro.core.base import SearchContext
from repro.decomp import validate_ghd
from repro.decomp.decomposition import GeneralizedHypertreeDecomposition
from repro.decomp.extended import FragmentNode
from repro.exceptions import SolverError
from repro.hypergraph import Hypergraph, generators


def test_produces_valid_ghd(cycle10):
    result = BalancedGHDDecomposer().decompose(cycle10, 2)
    assert result.success
    assert isinstance(result.decomposition, GeneralizedHypertreeDecomposition)
    validate_ghd(result.decomposition)
    assert result.decomposition.width <= 2


def test_search_returns_a_fragment_wrapped_as_a_ghd(cycle10):
    # The GHD search is a ``search`` like every other; the shared run path
    # wraps its fragment in the class it declares, not in an HD.
    fragment = BalancedGHDDecomposer().search(SearchContext(cycle10, 2))
    assert isinstance(fragment, FragmentNode)
    result = BalancedGHDDecomposer().decompose_raw(cycle10, 2)
    assert type(result.decomposition) is GeneralizedHypertreeDecomposition
    validate_ghd(result.decomposition)


def test_acyclic_instance(path5):
    result = BalancedGHDDecomposer().decompose(path5, 1)
    assert result.success
    validate_ghd(result.decomposition)
    assert result.decomposition.width == 1


def test_ghd_width_never_exceeds_hd_width():
    # ghw <= hw always; whenever log-k-decomp finds an HD of width k, the GHD
    # solver must also succeed at k.
    for hypergraph in (generators.cycle(6), generators.triangle_cascade(3), generators.grid(2, 3)):
        k = 2
        assert LogKDecomposer().decompose(hypergraph, k).success
        assert BalancedGHDDecomposer().decompose(hypergraph, k).success


def test_negative_instance(cycle6):
    result = BalancedGHDDecomposer().decompose(cycle6, 1)
    assert not result.success


def test_rejects_empty_hypergraph():
    with pytest.raises(SolverError):
        BalancedGHDDecomposer().decompose(Hypergraph({}), 1)


def test_timeout_reported():
    result = BalancedGHDDecomposer(timeout=0.0).decompose(generators.clique(7), 3)
    assert result.timed_out


def test_unbalanced_variant_still_correct(cycle10):
    result = BalancedGHDDecomposer(require_balanced=False).decompose(cycle10, 2)
    assert result.success
    validate_ghd(result.decomposition)


def test_ghd_on_clique():
    result = BalancedGHDDecomposer().decompose(generators.clique(5), 3)
    assert result.success
    validate_ghd(result.decomposition)
    assert result.decomposition.width <= 3


def test_statistics_populated(cycle6):
    result = BalancedGHDDecomposer().decompose(cycle6, 2)
    assert result.statistics.recursive_calls > 0
