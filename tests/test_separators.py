"""Unit tests for balanced separators, cov() and Lemma 3.10."""

from __future__ import annotations

from oracles.separators import (
    cov,
    cov_subtree,
    find_balanced_separator,
    is_balanced_label,
    is_balanced_separator_node,
    largest_component_size,
    subtree_cov_sizes,
)

from repro.core import LogKDecomposer, decompose
from repro.decomp.components import components
from repro.decomp.extended import BitComp, FragmentNode, full_bitcomp
from repro.hypergraph import generators


def _fragment_for(hypergraph, k=2) -> FragmentNode:
    """Obtain a concrete HD of the hypergraph as a fragment tree.

    We rebuild a fragment from the node structure of a computed decomposition,
    which keeps these tests independent of the decomposer internals.
    """
    result = decompose(hypergraph, k, algorithm="detk")
    assert result.success

    def convert(node) -> FragmentNode:
        lam = tuple(sorted(hypergraph.edge_index(name) for name in node.cover))
        return FragmentNode(
            chi=hypergraph.vertices_to_mask(node.bag),
            lam_edges=lam,
            children=[convert(child) for child in node.children],
        )

    return convert(result.decomposition.root)


def test_cov_covers_every_edge_exactly_once():
    h = generators.cycle(8)
    fragment = _fragment_for(h)
    comp = full_bitcomp(h)
    table = cov(h, comp, fragment)
    seen: set[object] = set()
    for items in table.values():
        assert not (seen & items)
        seen |= items
    assert seen == set(range(h.num_edges))


def test_cov_respects_ancestors():
    h = generators.cycle(6)
    fragment = _fragment_for(h)
    comp = full_bitcomp(h)
    table = cov(h, comp, fragment)
    # The root covers its own bag's edges; they may not reappear deeper down.
    root_items = table[id(fragment)]
    for node in fragment.nodes():
        if node is fragment:
            continue
        assert not (table[id(node)] & root_items)


def test_find_balanced_separator_satisfies_definition():
    for h in [generators.cycle(10), generators.grid(2, 4), generators.triangle_cascade(4)]:
        fragment = _fragment_for(h)
        comp = full_bitcomp(h)
        separator = find_balanced_separator(h, comp, fragment)
        assert is_balanced_separator_node(h, comp, fragment, separator)


def test_balanced_separator_always_exists_lemma_3_10():
    # Lemma 3.10: every HD of an extended subhypergraph has a balanced separator.
    for length in range(3, 14):
        h = generators.cycle(length)
        fragment = _fragment_for(h)
        comp = full_bitcomp(h)
        separator = find_balanced_separator(h, comp, fragment)
        assert separator is not None
        assert is_balanced_separator_node(h, comp, fragment, separator)


def test_root_not_always_balanced():
    # A path decomposed strictly top-down by det-k has an unbalanced root for
    # long cycles: the root's single child subtree covers almost everything.
    h = generators.cycle(12)
    fragment = _fragment_for(h)
    comp = full_bitcomp(h)
    if not is_balanced_separator_node(h, comp, fragment, fragment):
        separator = find_balanced_separator(h, comp, fragment)
        assert separator is not fragment


def test_is_balanced_label():
    h = generators.cycle(8)
    comp = full_bitcomp(h)
    # A single edge cannot balance an 8-cycle (the rest stays connected).
    assert not is_balanced_label(h, comp, h.edge_bits(0))
    # Two opposite edges split it into two halves of 3 <= 4.
    separator = h.edge_bits(0) | h.edge_bits(4)
    assert is_balanced_label(h, comp, separator)
    assert largest_component_size(h, comp, separator) == 3


def test_largest_component_size_empty():
    h = generators.cycle(4)
    comp = BitComp.of(())
    assert largest_component_size(h, comp, 0) == 0


def test_logk_decomposition_contains_balanced_separator_nodes():
    # The decompositions produced by log-k-decomp are built around balanced
    # separators; check the definition holds for the fragment of the whole
    # hypergraph at the top level.
    h = generators.cycle(9)
    result = LogKDecomposer().decompose(h, 2)
    assert result.success

    def convert(node) -> FragmentNode:
        lam = tuple(sorted(h.edge_index(name) for name in node.cover))
        return FragmentNode(
            chi=h.vertices_to_mask(node.bag),
            lam_edges=lam,
            children=[convert(child) for child in node.children],
        )

    fragment = convert(result.decomposition.root)
    comp = full_bitcomp(h)
    separator = find_balanced_separator(h, comp, fragment)
    assert is_balanced_separator_node(h, comp, fragment, separator)


def test_subtree_cov_sizes_match_set_computation():
    # The single post-order pass must agree with the set-union definition of
    # cov(T_u) at every node of the fragment.
    for h in [generators.cycle(9), generators.grid(2, 4), generators.triangle_cascade(4)]:
        fragment = _fragment_for(h)
        comp = full_bitcomp(h)
        table = cov(h, comp, fragment)
        sizes = subtree_cov_sizes(h, comp, fragment, table=table)
        for node in fragment.nodes():
            assert sizes[id(node)] == len(cov_subtree(h, comp, fragment, node, table=table))
        # The root subtree covers every item of the component exactly once.
        assert sizes[id(fragment)] == comp.size


def test_is_balanced_separator_accepts_shared_sizes_table():
    h = generators.cycle(10)
    fragment = _fragment_for(h)
    comp = full_bitcomp(h)
    sizes = subtree_cov_sizes(h, comp, fragment)
    for node in fragment.nodes():
        assert is_balanced_separator_node(h, comp, fragment, node, sizes=sizes) == (
            is_balanced_separator_node(h, comp, fragment, node)
        )


def test_balance_check_matches_components():
    h = generators.grid(2, 3)
    comp = full_bitcomp(h)
    for index in range(h.num_edges):
        separator = h.edge_bits(index)
        expected = largest_component_size(h, comp, separator) <= comp.size / 2
        assert is_balanced_label(h, comp, separator) == expected
        comps = components(h, comp, separator)
        assert largest_component_size(h, comp, separator) == max(
            (c.size for c in comps), default=0
        )
