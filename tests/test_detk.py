"""Unit tests for the det-k-decomp baseline."""

from __future__ import annotations

from repro.core import DetKDecomposer
from repro.core.base import SearchContext
from repro.core.detk import DetKSearch
from repro.decomp import validate_hd
from repro.decomp.extended import BitComp
from repro.decomp.validation import validate_extended_hd
from repro.hypergraph import Hypergraph, generators


def test_positive_and_negative_answers(cycle10):
    assert DetKDecomposer().decompose(cycle10, 2).success
    assert not DetKDecomposer().decompose(cycle10, 1).success


def test_produces_valid_hd(grid23):
    result = DetKDecomposer().decompose(grid23, 2)
    assert result.success
    validate_hd(result.decomposition)
    assert result.decomposition.width <= 2


def test_acyclic_width_one(path5):
    result = DetKDecomposer().decompose(path5, 1)
    assert result.success
    validate_hd(result.decomposition)


def test_cache_is_used(cycle10):
    cached = DetKDecomposer(use_cache=True).decompose(cycle10, 2)
    uncached = DetKDecomposer(use_cache=False).decompose(cycle10, 2)
    assert cached.success and uncached.success
    # With caching enabled at least some subproblems should be reused on
    # instances with repeated structure.
    assert cached.statistics.cache_misses > 0
    assert uncached.statistics.cache_hits == 0


def test_cache_does_not_change_answers():
    for hypergraph in (generators.cycle(7), generators.grid(2, 3), generators.clique(4)):
        for k in (1, 2, 3):
            with_cache = DetKDecomposer(use_cache=True).decompose(hypergraph, k).success
            without_cache = DetKDecomposer(use_cache=False).decompose(hypergraph, k).success
            assert with_cache == without_cache


def test_recursion_depth_grows_linearly_on_cycles():
    # det-k-decomp constructs the HD strictly top-down, so its recursion depth
    # on a cycle grows linearly — the contrast to Theorem 4.1 for log-k-decomp.
    depths = {}
    for length in (8, 16, 32):
        result = DetKDecomposer().decompose(generators.cycle(length), 2)
        assert result.success
        depths[length] = result.statistics.max_recursion_depth
    assert depths[16] > depths[8]
    assert depths[32] > depths[16]
    assert depths[32] >= 32 / 2


def test_search_on_extended_subhypergraph_with_specials():
    # The hybrid hands subproblems with special edges to det-k-decomp; check
    # that the fragments it returns are valid HDs of the extended
    # subhypergraph (Definition 3.3).
    host = generators.cycle(8)
    special = host.vertices_to_mask(["x1", "x5"])
    comp = BitComp.of(range(1, 5), (special,))
    conn = host.vertices_to_mask(["x1", "x2"])
    context = SearchContext(host, 2)
    fragment = DetKSearch(context).search(comp, conn)
    assert fragment is not None
    validate_extended_hd(host, comp, conn, fragment, k=2)


def test_search_refuses_impossible_specials():
    host = generators.cycle(6)
    specials = (
        host.vertices_to_mask(["x1", "x3"]),
        host.vertices_to_mask(["x4", "x6"]),
    )
    comp = BitComp.of((), specials)
    context = SearchContext(host, 2)
    assert DetKSearch(context).search(comp, conn=0) is None


def test_single_node_base_case():
    h = Hypergraph({"a": ["x", "y"], "b": ["y", "z"]})
    result = DetKDecomposer().decompose(h, 2)
    assert result.success
    assert len(result.decomposition) == 1


def test_timeouts_are_reported():
    result = DetKDecomposer(timeout=0.0).decompose(generators.clique(7), 3)
    assert result.timed_out


def test_cached_fragments_are_copied():
    # Cache hits share fragment nodes, so the fragment may be a DAG; the
    # converted decomposition must still be a tree of distinct nodes.
    host = generators.triangle_cascade(4)
    result = DetKDecomposer().decompose(host, 2)
    assert result.success
    nodes = list(result.decomposition.nodes())
    assert len({id(node) for node in nodes}) == len(nodes)
    validate_hd(result.decomposition)
