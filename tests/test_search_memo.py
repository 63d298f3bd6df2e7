"""The one subproblem memo (``core.base.SearchMemo``) of det-k and log-k.

Two contracts: ``cache_misses`` counts the expansions performed, whether
the memo is on or off, and a fragment the memo stores is never changed
afterwards — fragments are persistent, so the memo hands out shared nodes
instead of copies and stitching must copy the path it changes.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.base import SearchContext, SearchMemo
from repro.core.detk import DetKSearch
from repro.core.logk import LogKSearch
from repro.core.logk_basic import LogKBasicSearch
from repro.decomp import validate_hd
from repro.decomp.extended import FragmentNode, full_bitcomp
from repro.hypergraph import Hypergraph, generators
from repro.pipeline.registry import registry


def _shape(node: FragmentNode) -> tuple:
    return (node.chi, node.lam_edges, node.special, tuple(_shape(c) for c in node.children))


@pytest.mark.parametrize("use_cache", [True, False], ids=["memo-on", "memo-off"])
@pytest.mark.parametrize("algorithm", ["detk", "logk"])
def test_cache_misses_count_expansions_performed(algorithm, use_cache):
    host = generators.clique(5)  # a k = 2 refutation that revisits subproblems
    context = SearchContext(host, 2)
    if algorithm == "detk":
        search, expansion = DetKSearch(context, use_cache=use_cache), "_expand"
    else:
        search, expansion = LogKSearch(context, use_cache=use_cache), "_search_uncached"
    expand = getattr(search, expansion)
    performed = 0

    def counted(*args):
        nonlocal performed
        performed += 1
        return expand(*args)

    setattr(search, expansion, counted)
    search.search(full_bitcomp(host), 0, host.all_edges_mask)
    stats = context.stats
    assert stats.cache_misses == performed > 0
    if use_cache:
        assert stats.cache_hits > 0
    else:
        assert stats.cache_hits == 0


@st.composite
def _small_hypergraphs(draw) -> Hypergraph:
    """A cycle with chords and a few extra edges: deep enough for log-k to
    stitch fragments it took from the memo."""
    cycle = generators.with_chords(
        generators.cycle(draw(st.integers(5, 12))),
        draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 99)),
    )
    edges = cycle.edges_as_dict()
    pool = sorted(cycle.vertices)
    for extra in draw(
        st.lists(st.lists(st.sampled_from(pool), min_size=2, max_size=3, unique=True), max_size=3)
    ):
        edges[f"extra{len(edges)}"] = extra
    return Hypergraph(edges)


#: The hybrid with a tiny threshold: log-k takes every subproblem of 4 edges
#: or more and stitches det-k's memoised fragments below it.
ALGORITHMS = {
    "detk": lambda: registry.build("detk"),
    "logk": lambda: registry.build("logk"),
    "hybrid": lambda: registry.build("hybrid", metric="EdgeCount", threshold=4),
    "logk-basic": lambda: registry.build("logk-basic"),
}


@given(_small_hypergraphs(), st.integers(1, 3), st.sampled_from(sorted(ALGORITHMS)))
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_memoised_fragments_are_never_changed(hypergraph, k, algorithm):
    # Snapshot every fragment the memo stores (logk-basic has no memo: every
    # fragment its ``decomp`` returns), and compare after the search.
    snapshots: list[tuple[FragmentNode, tuple]] = []

    def snapshot(fragment):
        if fragment is not None:
            snapshots.append((fragment, _shape(fragment)))
        return fragment

    solve, decomp = SearchMemo.solve, LogKBasicSearch.decomp

    def snapshotting_solve(self, context, key, depth, expand):
        return solve(self, context, key, depth, lambda: snapshot(expand()))

    def snapshotting_decomp(self, *args, **kwargs):
        return snapshot(decomp(self, *args, **kwargs))

    with mock.patch.object(SearchMemo, "solve", snapshotting_solve), mock.patch.object(
        LogKBasicSearch, "decomp", snapshotting_decomp
    ):
        result = ALGORITHMS[algorithm]().decompose_raw(hypergraph, k)
    for fragment, shape in snapshots:
        assert _shape(fragment) == shape
    if result.success:
        validate_hd(result.decomposition)
