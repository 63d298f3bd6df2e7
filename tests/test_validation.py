"""Unit tests for the HD / GHD / extended-HD validators."""

from __future__ import annotations

import pytest

from repro.decomp.decomposition import DecompositionNode, HypertreeDecomposition
from repro.decomp.extended import BitComp, FragmentNode, full_bitcomp
from repro.decomp.validation import (
    check_width,
    is_valid_ghd,
    is_valid_hd,
    validate_extended_hd,
    validate_ghd,
    validate_hd,
)
from repro.exceptions import ValidationError
from repro.hypergraph import Hypergraph, generators


@pytest.fixture
def triangle_host() -> Hypergraph:
    return Hypergraph({"a": ["x", "y"], "b": ["y", "z"], "c": ["z", "x"]})


def _valid_triangle_hd(host: Hypergraph) -> HypertreeDecomposition:
    leaf = DecompositionNode(bag={"z", "x"}, cover={"c"})
    root = DecompositionNode(bag={"x", "y", "z"}, cover={"a", "b"}, children=[leaf])
    return HypertreeDecomposition(host, root)


def test_valid_hd_passes(triangle_host):
    hd = _valid_triangle_hd(triangle_host)
    validate_hd(hd)
    validate_ghd(hd)
    assert is_valid_hd(hd)
    assert is_valid_ghd(hd)


def test_missing_edge_coverage_detected(triangle_host):
    root = DecompositionNode(bag={"x", "y"}, cover={"a"})
    hd = HypertreeDecomposition(triangle_host, root)
    with pytest.raises(ValidationError, match="condition 1"):
        validate_ghd(hd)
    assert not is_valid_ghd(hd)


def test_connectedness_violation_detected(triangle_host):
    # x appears at the root and at a grandchild but not at the child in between.
    leaf = DecompositionNode(bag={"z", "x"}, cover={"c"})
    middle = DecompositionNode(bag={"y", "z"}, cover={"b"}, children=[leaf])
    root = DecompositionNode(bag={"x", "y"}, cover={"a"}, children=[middle])
    hd = HypertreeDecomposition(triangle_host, root)
    with pytest.raises(ValidationError, match="condition 2"):
        validate_ghd(hd)


def test_bag_not_covered_by_lambda_detected(triangle_host):
    root = DecompositionNode(
        bag={"x", "y", "z"},
        cover={"a"},
        children=[
            DecompositionNode(bag={"z", "x"}, cover={"c"}),
            DecompositionNode(bag={"y", "z"}, cover={"b"}),
        ],
    )
    hd = HypertreeDecomposition(triangle_host, root)
    with pytest.raises(ValidationError, match="condition 3"):
        validate_ghd(hd)


def test_special_condition_violation_detected(triangle_host):
    # Root covers edge a but its bag omits y although y occurs below: the
    # GHD conditions hold, the HD special condition does not.
    leaf = DecompositionNode(bag={"x", "y"}, cover={"a"})
    child = DecompositionNode(bag={"x", "y", "z"}, cover={"b", "c"}, children=[leaf])
    root = DecompositionNode(bag={"x"}, cover={"a"}, children=[child])
    hd = HypertreeDecomposition(triangle_host, root)
    validate_ghd(hd)
    with pytest.raises(ValidationError, match="special condition"):
        validate_hd(hd)
    assert is_valid_ghd(hd)
    assert not is_valid_hd(hd)


def test_check_width(triangle_host):
    hd = _valid_triangle_hd(triangle_host)
    check_width(hd, 2)
    with pytest.raises(ValidationError):
        check_width(hd, 1)


def test_ghd_width_can_be_below_hw_only_with_subedges(triangle_host):
    # Sanity: a one-node "decomposition" whose bag is everything but whose
    # cover is a single edge is invalid.
    root = DecompositionNode(bag={"x", "y", "z"}, cover={"a"})
    hd = HypertreeDecomposition(triangle_host, root)
    with pytest.raises(ValidationError):
        validate_ghd(hd)


# --------------------------------------------------------------------------- #
# extended subhypergraph HDs (Definition 3.3)
# --------------------------------------------------------------------------- #
def test_validate_extended_hd_accepts_special_leaf():
    host = generators.cycle(4)
    special = host.vertices_to_mask(["x1", "x3"])
    comp = BitComp.of((), (special,))
    fragment = FragmentNode(chi=special, special=special)
    validate_extended_hd(host, comp, conn=0, fragment=fragment, k=2)


def test_validate_extended_hd_detects_missing_special():
    host = generators.cycle(4)
    special = host.vertices_to_mask(["x1", "x3"])
    comp = BitComp.of({0}, (special,))
    fragment = FragmentNode(chi=host.edge_bits(0), lam_edges=(0,))
    with pytest.raises(ValidationError, match="condition 2b"):
        validate_extended_hd(host, comp, conn=0, fragment=fragment)


def test_validate_extended_hd_detects_uncovered_edge():
    host = generators.cycle(4)
    comp = full_bitcomp(host)
    fragment = FragmentNode(chi=host.edge_bits(0), lam_edges=(0,))
    with pytest.raises(ValidationError, match="condition 2a"):
        validate_extended_hd(host, comp, conn=0, fragment=fragment)


def test_validate_extended_hd_detects_conn_violation():
    host = generators.cycle(4)
    comp = BitComp.of({0})
    fragment = FragmentNode(chi=host.edge_bits(0), lam_edges=(0,))
    conn = host.vertices_to_mask(["x3"])
    with pytest.raises(ValidationError, match="condition 6"):
        validate_extended_hd(host, comp, conn=conn, fragment=fragment)


def test_validate_extended_hd_detects_chi_not_covered():
    host = generators.cycle(4)
    comp = BitComp.of({0})
    bad_chi = host.edge_bits(0) | host.vertices_to_mask(["x3"])
    fragment = FragmentNode(chi=bad_chi, lam_edges=(0,))
    with pytest.raises(ValidationError, match="condition 1a"):
        validate_extended_hd(host, comp, conn=0, fragment=fragment)


def test_validate_extended_hd_detects_special_leaf_with_children():
    host = generators.cycle(4)
    special = host.vertices_to_mask(["x1", "x2"])
    comp = BitComp.of({2}, (special,))
    # Edge 0 of the 4-cycle has exactly the special's vertices {x1, x2}, so the
    # leaf's child keeps connectedness intact and only condition 5 trips.
    below = FragmentNode(chi=host.edge_bits(0), lam_edges=(0,))
    leaf = FragmentNode(chi=special, special=special, children=[below])
    root = FragmentNode(chi=host.edge_bits(2), lam_edges=(2,), children=[leaf])
    with pytest.raises(ValidationError, match="condition 5"):
        validate_extended_hd(host, comp, conn=0, fragment=root)


def test_validate_extended_hd_width_check():
    host = generators.cycle(4)
    comp = BitComp.of({0, 1})
    fragment = FragmentNode(
        chi=host.edge_bits(0) | host.edge_bits(1), lam_edges=(0, 1)
    )
    validate_extended_hd(host, comp, conn=0, fragment=fragment, k=2)
    with pytest.raises(ValidationError, match="width"):
        validate_extended_hd(host, comp, conn=0, fragment=fragment, k=1)


def test_validate_whole_hypergraph_as_extended(cycle6):
    from repro.core import LogKDecomposer

    result = LogKDecomposer().decompose(cycle6, 2)
    assert result.success

    def convert(node):
        lam = tuple(sorted(cycle6.edge_index(n) for n in node.cover))
        return FragmentNode(
            chi=cycle6.vertices_to_mask(node.bag),
            lam_edges=lam,
            children=[convert(c) for c in node.children],
        )

    fragment = convert(result.decomposition.root)
    validate_extended_hd(cycle6, full_bitcomp(cycle6), conn=0, fragment=fragment, k=2)
