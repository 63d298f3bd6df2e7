"""Unit tests for fragment stitching and conversion (core.fragments)."""

from __future__ import annotations

import pytest

from collections.abc import Iterable

from repro.core.fragments import (
    fragment_to_decomposition,
    replace_special_leaf,
    special_leaf,
)
from repro.decomp.extended import FragmentNode
from repro.decomp.validation import validate_hd
from repro.exceptions import DecompositionError
from repro.hypergraph import Hypergraph, generators


def regular_node(
    host: Hypergraph,
    lam_edges: tuple[int, ...],
    chi: int,
    children: Iterable[FragmentNode] = (),
) -> FragmentNode:
    """A regular fragment node; raises if χ is not covered by ∪λ."""
    union = host.edges_to_mask(lam_edges)
    if chi & ~union:
        raise DecompositionError("χ of a regular node must be covered by ∪λ")
    return FragmentNode(chi=chi, lam_edges=lam_edges, children=tuple(children))


def test_special_leaf_constructor():
    leaf = special_leaf(0b101)
    assert leaf.is_special_leaf
    assert leaf.chi == 0b101
    assert leaf.special == 0b101


def test_regular_node_requires_chi_covered():
    host = generators.cycle(4)
    node = regular_node(host, (0,), host.edge_bits(0))
    assert not node.is_special_leaf
    with pytest.raises(DecompositionError):
        regular_node(host, (0,), host.edge_bits(0) | host.edge_bits(2))


def _shape(node: FragmentNode) -> tuple:
    return (node.chi, node.lam_edges, node.special, tuple(_shape(c) for c in node.children))


def test_replace_special_leaf_in_tree():
    host = generators.cycle(4)
    special = host.vertices_to_mask(["x1", "x3"])
    sibling = regular_node(host, (2,), host.edge_bits(2))
    root = regular_node(host, (0,), host.edge_bits(0), [special_leaf(special), sibling])
    before = _shape(root)
    replacement = regular_node(host, (1,), host.edge_bits(1))
    stitched = replace_special_leaf(root, special, replacement)
    assert stitched is not root
    assert stitched.children[0] is replacement
    assert stitched.children[1] is sibling  # off the path: shared, not copied
    assert _shape(root) == before


def test_replace_special_leaf_at_root():
    special = 0b11
    root = special_leaf(special)
    replacement = FragmentNode(chi=0b1, lam_edges=(0,))
    assert replace_special_leaf(root, special, replacement) is replacement
    assert root.is_special_leaf and root.chi == special


def test_replace_special_leaf_missing_returns_false():
    host = generators.cycle(4)
    root = regular_node(host, (0,), host.edge_bits(0))
    assert replace_special_leaf(root, 0b1000, regular_node(host, (1,), host.edge_bits(1))) is None


def test_replace_only_one_of_two_equal_leaves():
    special = 0b110
    root = FragmentNode(
        chi=0b1,
        lam_edges=(0,),
        children=[special_leaf(special), special_leaf(special)],
    )
    before = _shape(root)
    replacement = FragmentNode(chi=0b10, lam_edges=(1,))
    stitched = replace_special_leaf(root, special, replacement)
    assert stitched.children == (replacement, root.children[1])
    assert _shape(root) == before


def test_replace_special_leaf_rebuilds_only_the_path():
    # The leaf found is the one the depth-first scan meets first: every child
    # of a node is checked before the scan descends into its last child.
    special = 0b1000
    deep = FragmentNode(chi=0b100, lam_edges=(2,), children=[special_leaf(special)])
    shallow = FragmentNode(chi=0b10, lam_edges=(1,), children=[special_leaf(special)])
    root = FragmentNode(chi=0b1, lam_edges=(0,), children=[deep, shallow])
    before = _shape(root)
    replacement = FragmentNode(chi=0b10000, lam_edges=(3,))
    stitched = replace_special_leaf(root, special, replacement)
    assert stitched.children[0] is deep
    assert stitched.children[1] is not shallow
    assert stitched.children[1].children == (replacement,)
    assert _shape(root) == before


def test_computed_fragments_convert_to_valid_decompositions():
    from repro.core import LogKDecomposer

    for length in (4, 6, 9):
        host = generators.cycle(length)
        result = LogKDecomposer().decompose(host, 2)
        assert result.success
        validate_hd(result.decomposition)


def test_fragment_to_decomposition_rejects_special_leaves():
    host = generators.cycle(4)
    root = regular_node(
        host, (0,), host.edge_bits(0), [special_leaf(host.edge_bits(2))]
    )
    with pytest.raises(DecompositionError):
        fragment_to_decomposition(host, root)


def test_fragment_to_decomposition_names():
    host = generators.cycle(3)
    root = regular_node(
        host,
        (0, 1),
        host.edge_bits(0) | host.edge_bits(1),
        [regular_node(host, (2,), host.edge_bits(2))],
    )
    decomposition = fragment_to_decomposition(host, root)
    assert decomposition.root.cover == {"R1", "R2"}
    assert decomposition.root.children[0].cover == {"R3"}
    assert decomposition.width == 2
    validate_hd(decomposition)
