"""Unit tests for the decomposition data structures."""

from __future__ import annotations

import pytest

from repro.decomp.decomposition import (
    DecompositionNode,
    GeneralizedHypertreeDecomposition,
    HypertreeDecomposition,
)
from repro.exceptions import DecompositionError
from repro.hypergraph import Hypergraph


@pytest.fixture
def host() -> Hypergraph:
    return Hypergraph(
        {"a": ["x", "y"], "b": ["y", "z"], "c": ["z", "x"]},
        name="triangle",
    )


def _two_node_hd(host: Hypergraph) -> HypertreeDecomposition:
    leaf = DecompositionNode(bag={"z", "x"}, cover={"c"})
    root = DecompositionNode(bag={"x", "y", "z"}, cover={"a", "b"}, children=[leaf])
    return HypertreeDecomposition(host, root)


def test_node_normalises_to_frozensets():
    node = DecompositionNode(bag=["x", "y"], cover=["a"])
    assert isinstance(node.bag, frozenset)
    assert isinstance(node.cover, frozenset)
    assert node.width == 1


def test_decomposition_width_and_len(host):
    hd = _two_node_hd(host)
    assert hd.width == 2
    assert len(hd) == 2
    assert hd.depth == 2


def test_nodes_preorder(host):
    hd = _two_node_hd(host)
    nodes = list(hd.nodes())
    assert nodes[0] is hd.root
    assert len(nodes) == 2


def test_subtree_bags(host):
    hd = _two_node_hd(host)
    assert hd.root.subtree_bags() == {"x", "y", "z"}
    assert hd.root.children[0].subtree_bags() == {"z", "x"}


def test_unknown_edge_in_cover_rejected(host):
    root = DecompositionNode(bag={"x"}, cover={"nonexistent"})
    with pytest.raises(DecompositionError):
        HypertreeDecomposition(host, root)


def test_unknown_vertex_in_bag_rejected(host):
    root = DecompositionNode(bag={"x", "mystery"}, cover={"a"})
    with pytest.raises(DecompositionError):
        HypertreeDecomposition(host, root)


def test_describe_output(host):
    hd = _two_node_hd(host)
    text = hd.describe()
    assert "λ={a,b}" in text
    assert "χ=" in text
    assert text.count("\n") == 1


def test_repr(host):
    hd = _two_node_hd(host)
    assert "width=2" in repr(hd)
    assert "nodes=2" in repr(hd)


def test_kind_markers(host):
    hd = _two_node_hd(host)
    assert hd.kind == "hd"
    ghd = GeneralizedHypertreeDecomposition(host, _two_node_hd(host).root)
    assert ghd.kind == "ghd"
