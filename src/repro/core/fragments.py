"""Assembling HD fragments into decompositions (Appendix A of the paper).

The recursive searches return :class:`~repro.decomp.extended.FragmentNode`
trees in which special edges appear as placeholder leaves.  Two operations are
needed to turn these into full hypertree decompositions:

* :func:`replace_special_leaf` — the stitching step of the soundness proof:
  the fragment for the part "above" a separator node c contains a leaf whose
  λ-label is the special edge χ(c); that leaf is replaced by the actual node
  c, below which the fragments of the components "below" c hang.
* :func:`fragment_to_decomposition` — conversion of a *complete* fragment
  (one without special leaves) into a user-facing
  :class:`~repro.decomp.decomposition.HypertreeDecomposition` (or, for the
  GHD search, a :class:`~repro.decomp.decomposition.GeneralizedHypertreeDecomposition`).

Fragments are persistent: fragment nodes are frozen, and stitching rebuilds
only the path to the replaced leaf.  The searches' memos hand the same nodes
to every caller, so a fragment may be a DAG; the conversion unfolds it into
a tree of (equally frozen) decomposition nodes, which callers may share.
"""

from __future__ import annotations

from ..decomp.decomposition import Decomposition, DecompositionNode, HypertreeDecomposition
from ..decomp.extended import BitComp, FragmentNode
from ..exceptions import DecompositionError
from ..hypergraph import Hypergraph
from ..hypergraph.bitset import indices_of

__all__ = [
    "replace_special_leaf",
    "fragment_to_decomposition",
    "special_leaf",
]


def special_leaf(special: int) -> FragmentNode:
    """A placeholder leaf for a special edge (λ(u) = {s}, χ(u) = s)."""
    return FragmentNode(chi=special, special=special)


def base_case(host: Hypergraph, k: int, comp: BitComp) -> FragmentNode | None:
    """The positive base cases every search shares (Algorithm 1, lines 12-15).

    At most ``k`` edges and no special edge: one node labelled with all of
    them.  No edge and exactly one special edge: its placeholder leaf.
    ``None`` means neither applies; if ``comp`` then has no edges it holds
    several special edges and nothing "new" to separate them with, which is
    the callers' negative base case.
    """
    if not comp.specials and comp.edges.bit_count() <= k:
        lam = tuple(indices_of(comp.edges))
        return FragmentNode(chi=host.edges_to_mask(lam), lam_edges=lam)
    if not comp.edges and len(comp.specials) == 1:
        return special_leaf(comp.specials[0])
    return None


def replace_special_leaf(
    fragment: FragmentNode, special: int, replacement: FragmentNode
) -> FragmentNode | None:
    """A new root: ``fragment`` with one special leaf ``special`` replaced.

    Only the path from the root to the leaf is rebuilt; ``fragment`` is left
    unchanged.  ``None`` if there is no such leaf.  The leaf is the first a
    depth-first scan meets that checks all children of a node before
    descending into the last one.
    """
    if fragment.special == special:
        return replacement
    stack: list[tuple[FragmentNode, tuple | None]] = [(fragment, None)]
    while stack:
        node, trail = stack.pop()
        for index, child in enumerate(node.children):
            if child.special == special:
                while True:  # rebuild the path, leaf to root
                    children = node.children[:index] + (replacement,) + node.children[index + 1 :]
                    replacement = FragmentNode(node.chi, node.lam_edges, children=children)
                    if trail is None:
                        return replacement
                    node, index, trail = trail
            stack.append((child, (node, index, trail)))
    return None


def fragment_to_decomposition(
    host: Hypergraph,
    fragment: FragmentNode,
    kind: type[Decomposition] = HypertreeDecomposition,
) -> Decomposition:
    """Convert a complete fragment into a ``kind`` (an HD unless told otherwise).

    Raises :class:`DecompositionError` if the fragment still contains special
    placeholder leaves (which would mean stitching is incomplete).
    """

    def convert(node: FragmentNode) -> DecompositionNode:
        if node.is_special_leaf:
            raise DecompositionError(
                "fragment still contains a special-edge placeholder leaf; "
                "it does not describe a decomposition of the full hypergraph"
            )
        return DecompositionNode(
            bag=host.mask_to_vertices(node.chi),
            cover=frozenset(host.edge_name(i) for i in node.lam_edges),
            children=tuple(map(convert, node.children)),
        )

    return kind(host, convert(fragment))
