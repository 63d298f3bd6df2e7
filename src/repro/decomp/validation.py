"""Validators for hypertree decompositions and their variants.

The validators are the library's independent correctness oracle: every
decomposer in :mod:`repro.core` produces concrete decompositions which the
test-suite feeds through these checks.

Three levels are provided:

* :func:`validate_ghd` — the GHD conditions: every edge is covered by some
  bag, bags are connected per vertex, and χ(u) ⊆ ∪λ(u);
* :func:`validate_hd` — additionally the *special condition*
  χ(T_u) ∩ ∪λ(u) ⊆ χ(u) (condition (4) in Section 2 of the paper);
* :func:`validate_extended_hd` — Definition 3.3: HDs of extended
  subhypergraphs represented as :class:`~repro.decomp.extended.FragmentNode`
  trees, including special-edge leaves and the Conn condition.

Each validator either returns silently or raises :class:`ValidationError`
with a message naming the violated condition; the boolean wrappers
(:func:`is_valid_hd`, ...) are convenience helpers for property tests.
"""

from __future__ import annotations

from ..exceptions import ValidationError
from ..hypergraph import Hypergraph
from ..hypergraph.bitset import bits_of
from .decomposition import Decomposition, DecompositionNode
from .extended import BitComp, FragmentNode

__all__ = [
    "validate_ghd",
    "validate_hd",
    "validate_extended_hd",
    "is_valid_ghd",
    "is_valid_hd",
    "check_width",
]


# --------------------------------------------------------------------------- #
# GHD / HD validation on name-based decompositions
# --------------------------------------------------------------------------- #
def validate_ghd(decomposition: Decomposition) -> None:
    """Validate the GHD conditions; raise :class:`ValidationError` on failure."""
    _check_edge_coverage(decomposition)
    _check_connectedness(decomposition)
    _check_bag_covered_by_lambda(decomposition)


def validate_hd(decomposition: Decomposition) -> None:
    """Validate all HD conditions (GHD conditions plus the special condition)."""
    validate_ghd(decomposition)
    _check_special_condition(decomposition)


def is_valid_ghd(decomposition: Decomposition) -> bool:
    """Boolean wrapper around :func:`validate_ghd`."""
    try:
        validate_ghd(decomposition)
    except ValidationError:
        return False
    return True


def is_valid_hd(decomposition: Decomposition) -> bool:
    """Boolean wrapper around :func:`validate_hd`."""
    try:
        validate_hd(decomposition)
    except ValidationError:
        return False
    return True


def check_width(decomposition: Decomposition, k: int) -> None:
    """Raise unless the decomposition has width at most ``k``."""
    if decomposition.width > k:
        raise ValidationError(
            f"decomposition has width {decomposition.width}, expected <= {k}"
        )


def _check_edge_coverage(decomposition: Decomposition) -> None:
    hypergraph = decomposition.hypergraph
    bags = [node.bag for node in decomposition.nodes()]
    for index in range(hypergraph.num_edges):
        edge = hypergraph.edge_vertices(index)
        if not any(edge <= bag for bag in bags):
            raise ValidationError(
                f"condition 1 violated: edge {hypergraph.edge_name(index)!r} "
                f"({sorted(edge)}) is not covered by any bag"
            )


def _check_connectedness(decomposition: Decomposition) -> None:
    """Condition 2: for every vertex, the nodes containing it form a subtree."""
    for vertex in decomposition.hypergraph.vertices:
        _check_vertex_connected(decomposition, vertex)


def _check_vertex_connected(decomposition: Decomposition, vertex: str) -> None:
    containing = {id(n) for n in decomposition.nodes() if vertex in n.bag}
    if not containing:
        return
    # Count, over a DFS from the root, how many maximal connected blocks of
    # "containing" nodes we enter; more than one block violates connectedness.
    blocks = 0

    def rec(node: DecompositionNode, parent_in: bool) -> None:
        nonlocal blocks
        inside = id(node) in containing
        if inside and not parent_in:
            blocks += 1
        for child in node.children:
            rec(child, inside)

    rec(decomposition.root, False)
    if blocks > 1:
        raise ValidationError(
            f"condition 2 violated: nodes containing vertex {vertex!r} are not "
            f"connected in the decomposition tree"
        )


def _check_bag_covered_by_lambda(decomposition: Decomposition) -> None:
    hypergraph = decomposition.hypergraph
    for node in decomposition.nodes():
        union: set[str] = set()
        for edge_name in node.cover:
            union |= hypergraph.edge_vertices(hypergraph.edge_index(edge_name))
        if not node.bag <= union:
            extra = sorted(node.bag - union)
            raise ValidationError(
                f"condition 3 violated: bag vertices {extra} are not covered by "
                f"the node's λ-label {sorted(node.cover)}"
            )


def _check_special_condition(decomposition: Decomposition) -> None:
    hypergraph = decomposition.hypergraph
    for node in decomposition.nodes():
        lam_union: set[str] = set()
        for edge_name in node.cover:
            lam_union |= hypergraph.edge_vertices(hypergraph.edge_index(edge_name))
        subtree = node.subtree_bags()
        escaped = (subtree & lam_union) - node.bag
        if escaped:
            raise ValidationError(
                "condition 4 (special condition) violated: vertices "
                f"{sorted(escaped)} of ∪λ(u) occur below the node but not in χ(u)"
            )


# --------------------------------------------------------------------------- #
# HDs of extended subhypergraphs (Definition 3.3) on fragment trees
# --------------------------------------------------------------------------- #
def validate_extended_hd(
    host: Hypergraph,
    comp: BitComp,
    conn: int,
    fragment: FragmentNode,
    k: int | None = None,
) -> None:
    """Validate ``fragment`` as an HD of the extended subhypergraph ⟨comp, conn⟩.

    Checks conditions (1)–(6) of Definition 3.3 and, if ``k`` is given, that
    the width is at most ``k``.
    """
    nodes = list(fragment.nodes())

    # Condition (1): each node is a regular node over E(H) or a special leaf.
    for node in nodes:
        if node.is_special_leaf:
            if node.special not in comp.specials and node.special is not None:
                # A special leaf may also stand for a special edge introduced
                # higher up during stitching; within a *complete* fragment of
                # ⟨comp, conn⟩ it must be one of comp's specials.
                raise ValidationError(
                    "condition 1b violated: special leaf does not correspond to a "
                    "special edge of the extended subhypergraph"
                )
        else:
            lam_union = host.edges_to_mask(node.lam_edges)
            if node.chi & ~lam_union:
                raise ValidationError(
                    "condition 1a violated: χ(u) is not covered by ∪λ(u)"
                )

    # Condition (2): every edge and special edge is covered.
    for index in bits_of(comp.edges):
        bits = host.edge_bits(index)
        if not any(not n.is_special_leaf and bits & ~n.chi == 0 for n in nodes):
            raise ValidationError(
                f"condition 2a violated: edge {host.edge_name(index)!r} is not "
                f"covered by any fragment node"
            )
    for special in comp.specials:
        if not any(n.is_special_leaf and n.special == special for n in nodes):
            raise ValidationError(
                "condition 2b violated: a special edge has no dedicated leaf node"
            )

    # Condition (3): connectedness for every vertex of V(comp).
    _check_fragment_connectedness(host, comp, fragment)

    # Condition (4): the special condition.
    _check_fragment_special_condition(host, fragment)

    # Condition (5): special leaves are leaves.
    for node in nodes:
        if node.is_special_leaf and node.children:
            raise ValidationError("condition 5 violated: a special leaf has children")

    # Condition (6): Conn ⊆ χ(root).
    if conn & ~fragment.chi:
        raise ValidationError("condition 6 violated: Conn is not contained in χ(root)")

    if k is not None and fragment.max_width() > k:
        raise ValidationError(
            f"fragment has width {fragment.max_width()}, expected <= {k}"
        )


def _check_fragment_connectedness(
    host: Hypergraph, comp: BitComp, fragment: FragmentNode
) -> None:
    relevant = comp.vertices(host)
    bits = relevant
    while bits:
        low = bits & -bits
        vertex_bit = low
        bits ^= low
        containing = {
            id(n) for n in fragment.nodes() if n.chi & vertex_bit
        }
        if not containing:
            continue
        blocks = 0

        def rec(node: FragmentNode, parent_in: bool) -> None:
            nonlocal blocks
            inside = id(node) in containing
            if inside and not parent_in:
                blocks += 1
            for child in node.children:
                rec(child, inside)

        rec(fragment, False)
        if blocks > 1:
            vertex = host.vertex_of_id(vertex_bit.bit_length() - 1)
            raise ValidationError(
                f"condition 3 violated: nodes containing vertex {vertex!r} are "
                f"not connected in the fragment"
            )


def _check_fragment_special_condition(host: Hypergraph, fragment: FragmentNode) -> None:
    def subtree_chi(node: FragmentNode) -> int:
        mask = node.chi
        for child in node.children:
            mask |= subtree_chi(child)
        return mask

    for node in fragment.nodes():
        lam_union = node.lambda_union(host)
        if subtree_chi(node) & lam_union & ~node.chi:
            raise ValidationError(
                "condition 4 (special condition) violated inside a fragment"
            )
