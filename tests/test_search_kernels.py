"""The cheaper search kernels explore the same tree as the ones they replaced.

* subedge domination over the incidence table == the pairwise oracle;
* the early-exit balance predicate == ``largest_size(sep) > half``, and the
  splitter's single-component / with-vertices views == the full split;
* the edge-adjacency flood fill == Definition 3.2's pairwise union-find;
* a long-lived splitter answering from its oversized-group witnesses ==
  the same union-find, over any sequence of separators and limits;
* sequential ``logk`` / ``hybrid`` / ``detk`` report the counters of the
  commit before the kernels changed (same labels, same calls, same skips).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from oracles.components import components_by_definition
from oracles.domination import dominated_pool_pairwise

from repro.core import DetKDecomposer, HybridDecomposer, LogKDecomposer
from repro.core.base import SearchStatistics
from repro.decomp.components import WITNESS_LIST_SIZE, ComponentSplitter
from repro.decomp.covers import CoverEnumerator, label_union
from repro.decomp.extended import BitComp, full_bitcomp
from repro.hypergraph import Hypergraph, generators
from repro.hypergraph.bitset import indices_of

# --------------------------------------------------------------------------- #
# subedge domination: incidence AND-chain vs the pairwise definition
# --------------------------------------------------------------------------- #
_vertices = st.sampled_from([f"v{i}" for i in range(7)])
_hypergraphs = st.lists(
    st.frozensets(_vertices, min_size=1, max_size=4), min_size=1, max_size=10
).map(lambda edges: Hypergraph({f"e{i}": sorted(vs) for i, vs in enumerate(edges)}))
_mask = st.integers(min_value=0, max_value=(1 << 10) - 1)


@given(_hypergraphs, _mask, st.one_of(st.none(), _mask), _mask, st.booleans())
@settings(max_examples=300, deadline=None)
def test_dominated_pool_matches_pairwise_oracle(host, pool_bits, require, vertices, strict):
    pool_mask = (pool_bits & host.all_edges_mask) or host.all_edges_mask
    require = (require & host.all_edges_mask) or None if require is not None else None
    component_vertices = vertices & host.all_vertices_mask
    stats = SearchStatistics()
    enumerator = CoverEnumerator(host, 2)
    enumerator.stats = stats
    survivors = enumerator._dominated_pool(pool_mask, require, component_vertices, strict)
    expected, skipped = dominated_pool_pairwise(
        host, indices_of(pool_mask), require, component_vertices, strict
    )
    assert survivors == expected
    assert stats.enum_domination_skips == skipped
    # Served from the memo: same survivors, the skips counted again.
    assert enumerator._dominated_pool(pool_mask, require, component_vertices, strict) == expected
    assert stats.enum_domination_skips == 2 * skipped


def test_dominated_pool_matches_oracle_on_search_components():
    # The pools the searches really build: a component's edges as progress
    # set, all edges allowed, V(comp) as the restriction.
    host = generators.with_chords(generators.cycle(24), 5, seed=2)
    enumerator = CoverEnumerator(host, 2)
    splitter = ComponentSplitter(host, full_bitcomp(host))
    everything = list(range(host.num_edges))
    for first in range(host.num_edges):
        separator = host.edge_bits(first) | host.edge_bits((first + 9) % host.num_edges)
        for comp, vertices in splitter.split_with_vertices(separator):
            for strict in (True, False):
                assert enumerator._dominated_pool(
                    host.all_edges_mask, comp.edges, vertices, strict
                ) == dominated_pool_pairwise(host, everything, comp.edges, vertices, strict)[0]


# --------------------------------------------------------------------------- #
# the splitter's early-exit views vs the full split
# --------------------------------------------------------------------------- #
CHORDED_CORPUS = [
    (generators.with_chords(generators.cycle(12), 3, seed=4), 2),
    (generators.with_chords(generators.cycle(16), 4, seed=1), 2),
    (generators.with_chords(generators.cycle(10), 2, seed=1), 3),
]


@pytest.mark.parametrize("host,k", CHORDED_CORPUS, ids=["cc12", "cc16", "cc10k3"])
def test_balance_predicate_agrees_with_largest_size_on_every_label(host, k):
    comp = full_bitcomp(host)
    half = comp.size / 2
    deciding = ComponentSplitter(host, comp)
    measuring = ComponentSplitter(host, comp, memoize=False)
    verdicts = set()
    for label in CoverEnumerator(host, k).labels():
        separator = label_union(host, label)
        oversized = measuring.largest_size(separator) > half
        assert deciding.has_oversized(separator, half) == oversized
        assert ComponentSplitter(host, comp, memoize=False).has_oversized(separator, half) == oversized
        verdicts.add(oversized)
    assert verdicts == {True, False}  # the corpus exercises both answers


def _special_comps():
    host = generators.with_chords(generators.cycle(14), 3, seed=1)
    yield host, full_bitcomp(host)
    specials = (host.vertices_to_mask(["x1", "x6"]), host.vertices_to_mask(["x9", "x12"]))
    yield host, BitComp.of(range(2, 11), specials)
    yield host, BitComp.of((), specials)


@pytest.mark.parametrize("host,comp", list(_special_comps()), ids=["full", "specials", "specials-only"])
def test_single_component_and_vertex_views_agree_with_full_split(host, comp):
    for first in range(host.num_edges):
        separator = host.edge_bits(first) | host.edge_bits((first + 5) % host.num_edges)
        parts = ComponentSplitter(host, comp, memoize=False).split_bits(separator)
        # The documented order: by smallest edge, specials-only groups last.
        assert parts == sorted(
            parts,
            key=lambda c: (min(indices_of(c.edges), default=host.num_edges), c.specials),
        )
        pairs = ComponentSplitter(host, comp).split_with_vertices(separator)
        assert [part for part, _ in pairs] == parts
        assert [vertices for _, vertices in pairs] == [part.vertices(host) for part in parts]
        for limit in (comp.size / 2, comp.size / 2 + 1):
            down = next((part for part in parts if part.size > limit), None)
            expected = None if down is None else (down, down.vertices(host))
            assert ComponentSplitter(host, comp).oversized(separator, limit) == expected
            # Decide first, then ask for the component: the memo must not
            # serve the bare verdict as a component, nor the reverse.
            splitter = ComponentSplitter(host, comp)
            for _ in range(2):
                assert splitter.has_oversized(separator, limit) == (down is not None)
                assert splitter.oversized(separator, limit) == expected


# --------------------------------------------------------------------------- #
# the flood fill vs Definition 3.2's pairwise union-find
# --------------------------------------------------------------------------- #
_vertex_mask = st.integers(min_value=0, max_value=(1 << 7) - 1)
_separator = st.one_of(
    _vertex_mask,  # touches edges partially, or not at all
    st.lists(st.integers(min_value=0, max_value=9), max_size=3),  # covers whole edges
    st.just(-1),  # covers everything
)


@given(
    _hypergraphs,
    _mask,
    st.lists(_vertex_mask.filter(bool), max_size=3),
    _separator,
)
@settings(max_examples=400, deadline=None)
def test_flood_fill_matches_definition(host, edge_bits, specials, separator):
    if isinstance(separator, list):
        # The union of a few edges, the lowest of the component among them.
        comp_edges = indices_of(edge_bits & host.all_edges_mask) or [0]
        separator = label_union(
            host, [comp_edges[0]] + [e for e in separator if e < host.num_edges]
        )
    separator &= host.all_vertices_mask
    specials = [s & host.all_vertices_mask for s in specials]
    comp = BitComp.of(indices_of(edge_bits & host.all_edges_mask), filter(None, specials))
    expected = components_by_definition(host, comp, separator)

    fresh = ComponentSplitter(host, comp, memoize=False)
    memoised = ComponentSplitter(host, comp)
    # Same groups, same order, same V(group), same remaining.
    assert list(fresh._flood(separator & fresh.comp_vertices)) == expected
    pairs = tuple(
        (BitComp(edges, tuple(comp.specials[i] for i in indices_of(sp))), vertices)
        for edges, sp, vertices, _ in expected
    )
    sizes = [part.size for part, _ in pairs]
    for _ in range(2):  # the second round is served from the memos
        for splitter in (fresh, memoised):
            assert splitter.split_with_vertices(separator) == pairs
            assert splitter.split_bits(separator) == [part for part, _ in pairs]
            assert splitter.largest_size(separator) == max(sizes, default=0)
            for limit in (comp.size / 2 - 1, comp.size / 2, comp.size / 2 + 0.5, comp.size / 2 + 1):
                first = next((pair for pair in pairs if pair[0].size > limit), None)
                assert splitter.has_oversized(separator, limit) == (first is not None)
                assert splitter.oversized(separator, limit) == first


# --------------------------------------------------------------------------- #
# oversized-group witnesses: a long-lived splitter vs the union-find
# --------------------------------------------------------------------------- #
@given(
    _hypergraphs,
    _mask,
    st.lists(_vertex_mask.filter(bool), max_size=3),
    st.lists(
        st.tuples(_vertex_mask, st.integers(min_value=0, max_value=13), st.booleans()),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=400, deadline=None)
def test_witnessed_verdicts_match_definition(host, edge_bits, specials, queries):
    specials = [s & host.all_vertices_mask for s in specials]
    comp = BitComp.of(indices_of(edge_bits & host.all_edges_mask), filter(None, specials))
    # One splitter for the whole sequence, so later queries meet the
    # witnesses earlier fills left.
    splitter = ComponentSplitter(host, comp)
    for separator, halves, whole in queries:
        separator &= host.all_vertices_mask
        limit = halves / 2
        first = next(
            (
                (BitComp(edges, tuple(comp.specials[i] for i in indices_of(sp))), vertices)
                for edges, sp, vertices, _ in components_by_definition(host, comp, separator)
                if edges.bit_count() + sp.bit_count() > limit
            ),
            None,
        )
        if whole:
            assert splitter.oversized(separator, limit) == first
        else:
            assert splitter.has_oversized(separator, limit) == (first is not None)
        assert len(splitter._witnesses) <= WITNESS_LIST_SIZE


def test_witness_decides_only_separators_disjoint_from_its_interior(monkeypatch):
    host = generators.cycle(12)  # R_i = {x_i, x_{i+1}}
    comp = full_bitcomp(host)
    splitter = ComponentSplitter(host, comp)
    fills = []  # one entry per fill
    flood = ComponentSplitter._flood
    monkeypatch.setattr(
        ComponentSplitter, "_flood", lambda self, *args: fills.append(1) or flood(self, *args)
    )
    cut = host.vertices_to_mask

    # Uneven: {R2, R3} and the ten other edges; the fill records the large group.
    assert splitter.has_oversized(cut(["x2", "x4"]), 6)
    assert len(fills) == 1
    [(interior, size)] = splitter._witnesses
    assert size > 6 and interior & cut(["x2", "x3", "x4"]) == 0

    # Even: two groups of six.  The separator meets the witness's interior,
    # so a fill decides — and says balanced.
    assert interior & cut(["x1", "x7"])
    assert not splitter.has_oversized(cut(["x1", "x7"]), 6)
    assert len(fills) == 2
    assert len(splitter._witnesses) == 1  # a balanced verdict leaves none

    # Disjoint from the interior: the witness decides, no fill.
    assert splitter.has_oversized(cut(["x3"]), 6)
    assert len(fills) == 2
    # ... but only for a limit below its size, and never for oversized().
    assert splitter.has_oversized(cut(["x3"]), size - 0.5) is True
    assert len(fills) == 2
    assert not splitter.has_oversized(cut(["x3"]), 12)
    assert len(fills) == 3
    down = splitter.oversized(cut(["x3"]), 6)
    assert len(fills) == 4
    assert down == (comp, host.all_vertices_mask)


def test_unmemoised_splitter_keeps_no_witness():
    host = generators.cycle(12)
    splitter = ComponentSplitter(host, full_bitcomp(host), memoize=False)
    for vertex in range(1, 13):
        assert splitter.has_oversized(host.vertices_to_mask([f"x{vertex}"]), 6)
        assert splitter.oversized(host.vertices_to_mask([f"x{vertex}"]), 6) is not None
    assert splitter._witnesses == []


def test_witness_list_is_bounded():
    # oversized() always fills, and every single-vertex cut of a cycle leaves
    # one oversized group, so each cut records a witness.
    length = WITNESS_LIST_SIZE + 8
    host = generators.cycle(length)
    splitter = ComponentSplitter(host, full_bitcomp(host))
    for vertex in range(1, length + 1):
        assert splitter.oversized(host.vertices_to_mask([f"x{vertex}"]), length / 2)
        assert len(splitter._witnesses) == min(vertex, WITNESS_LIST_SIZE)
    # Most recent first: the group of the last cut, every vertex but x_length.
    assert splitter._witnesses[0] == (
        host.all_vertices_mask & ~host.vertices_to_mask([f"x{length}"]), length
    )


# --------------------------------------------------------------------------- #
# same tree explored, only cheaper: pinned sequential counters
# --------------------------------------------------------------------------- #
_INSTANCES = {
    "cc10": lambda: generators.with_chords(generators.cycle(10), 2, seed=1),
    "cc30": lambda: generators.with_chords(generators.cycle(30), 4, seed=2),
    "grid2x4": lambda: generators.grid(2, 4),
    "clique5": lambda: generators.clique(5),
    "cycle10": lambda: generators.cycle(10),
    "grid2x3": lambda: generators.grid(2, 3),
    "cascade4": lambda: generators.triangle_cascade(4),
}
_ALGORITHMS = {
    "logk": lambda: LogKDecomposer(),
    # threshold 12: log-k-decomp keeps the larger instances, det-k-decomp
    # gets their subproblems — both halves of the hybrid run.
    "hybrid": lambda: HybridDecomposer(threshold=12),
    "detk": lambda: DetKDecomposer(),
}
#: (instance, k, algorithm) -> (success, labels_tried, recursive_calls,
#: enum_domination_skips), recorded at the commit before the domination pass,
#: the balance filter and the parent loop's component lookup were rewritten.
_PINNED = {
    ("cc10", 2, "logk"): (True, 189, 7, 17),
    ("cc10", 2, "hybrid"): (True, 15, 8, 19),
    ("cc10", 2, "detk"): (True, 7, 8, 17),
    ("cc30", 2, "logk"): (False, 12026, 46, 358),
    ("cc30", 2, "hybrid"): (False, 10657, 51, 297),
    ("cc30", 2, "detk"): (False, 2131, 2175, 1745),
    ("cc30", 3, "logk"): (True, 9034, 31, 385),
    ("cc30", 3, "hybrid"): (True, 8466, 25, 320),
    ("cc30", 3, "detk"): (True, 17, 19, 192),
    ("grid2x4", 2, "logk"): (True, 112, 6, 18),
    ("grid2x4", 2, "detk"): (True, 4, 5, 7),
    ("clique5", 2, "logk"): (False, 5405, 16, 0),
    ("clique5", 2, "hybrid"): (False, 76, 42, 0),  # det-k's label budget spent
    ("clique5", 2, "detk"): (False, 295, 296, 0),
    ("clique5", 3, "logk"): (True, 4161, 2, 0),
    ("cycle10", 1, "logk"): (False, 10, 1, 0),
    ("cycle10", 1, "detk"): (False, 10, 11, 0),
    ("cycle10", 2, "logk"): (True, 71, 9, 26),
    ("cycle10", 2, "detk"): (True, 5, 6, 12),
    ("grid2x3", 2, "logk"): (True, 52, 7, 12),
    ("grid2x3", 2, "detk"): (True, 3, 4, 2),
    ("cascade4", 2, "logk"): (True, 13, 6, 24),
    ("cascade4", 2, "hybrid"): (True, 7, 10, 24),
    ("cascade4", 2, "detk"): (True, 4, 8, 18),
}


@pytest.mark.parametrize("instance,k,algorithm", sorted(_PINNED))
def test_sequential_searches_explore_the_same_tree(instance, k, algorithm):
    result = _ALGORITHMS[algorithm]().decompose_raw(_INSTANCES[instance](), k)
    stats = result.statistics
    assert (
        result.success,
        stats.labels_tried,
        stats.recursive_calls,
        stats.enum_domination_skips,
    ) == _PINNED[instance, k, algorithm]
