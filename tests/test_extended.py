"""Unit tests for BitComp records and fragment nodes."""

from __future__ import annotations

import pytest

from repro.decomp.extended import BitComp, FragmentNode, full_bitcomp
from repro.exceptions import DecompositionError
from repro.hypergraph import Hypergraph


@pytest.fixture
def host() -> Hypergraph:
    return Hypergraph(
        {"a": ["x", "y"], "b": ["y", "z"], "c": ["z", "w"], "d": ["w", "x"]},
        name="square",
    )


def test_full_comp(host):
    comp = full_bitcomp(host)
    assert comp.edges == 0b1111 == host.all_edges_mask
    assert comp.specials == ()
    assert comp.size == 4


def test_comp_specials_are_sorted():
    comp = BitComp.of({0}, (5, 3, 9))
    assert comp == BitComp(0b1, (3, 5, 9))
    assert BitComp.of([2, 0]) == BitComp(0b101)  # any iterable, no specials
    # The positional form trusts its caller (the splitter's sorted tuples).
    assert BitComp(0b1, (5, 3, 9)).specials == (5, 3, 9)
    assert BitComp.of({0}, (3,)).with_special(1).specials == (1, 3)


def test_comp_with_special(host):
    comp = full_bitcomp(host)
    extended = comp.with_special(0b11)
    assert extended.specials == (0b11,)
    assert extended.size == 5
    # the original is unchanged (immutability)
    assert comp.specials == ()


def test_comp_difference(host):
    comp = BitComp.of({0, 1, 2}, (0b1, 0b10))
    other = BitComp.of({1}, (0b1,))
    diff = comp.difference(other)
    assert diff.edges == 0b101
    assert diff.specials == (0b10,)


def test_comp_difference_with_duplicate_specials():
    comp = BitComp.of((), (0b1, 0b1))
    diff = comp.difference(BitComp.of((), (0b1,)))
    assert diff.specials == (0b1,)


def test_comp_vertices(host):
    comp = BitComp.of({0, 1}, (host.vertices_to_mask(["w"]),))
    names = host.mask_to_vertices(comp.vertices(host))
    assert names == {"x", "y", "z", "w"}


def test_comp_hashable(host):
    a = BitComp.of([0, 1], (3,))
    b = BitComp.of([1, 0], (3,))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_fragment_node_basics(host):
    special = host.vertices_to_mask(["x", "y"])
    leaf = FragmentNode(chi=special, special=special)
    assert leaf.is_special_leaf
    assert leaf.width == 1
    node = FragmentNode(chi=host.edge_bits(0), lam_edges=(0,), children=[leaf])
    assert not node.is_special_leaf
    assert node.width == 1
    assert len(list(node.nodes())) == 2
    assert [n for n in node.nodes() if n.is_special_leaf] == [leaf]
    assert node.max_width() == 1


def test_fragment_node_invalid_combinations(host):
    with pytest.raises(DecompositionError):
        FragmentNode(chi=1, lam_edges=(0,), special=1)
    with pytest.raises(DecompositionError):
        FragmentNode(chi=3, special=1)


def test_fragment_describe_mentions_edges(host):
    node = FragmentNode(chi=host.edge_bits(0), lam_edges=(0,))
    text = node.describe(host)
    assert "a" in text
    assert "χ" in text


def test_fragment_lambda_union(host):
    node = FragmentNode(chi=host.edge_bits(0), lam_edges=(0, 1))
    assert node.lambda_union(host) == host.edge_bits(0) | host.edge_bits(1)
    leaf = FragmentNode(chi=5, special=5)
    assert leaf.lambda_union(host) == 5
