"""Balanced separators of extended subhypergraphs (Definitions 3.4, 3.9, Lemma 3.10).

The paper's definitions as written, for the tests to hold the searches
against; the searches themselves only ask whether a label is balanced, of a
``ComponentSplitter`` (``has_oversized``, ``largest_size``).

* :func:`cov` / :func:`cov_subtree` — the "covered for the first time" sets of
  Definition 3.4, computed on fragment trees;
* :func:`is_balanced_separator_node` — the check of Definition 3.9 for a node
  of an HD of an extended subhypergraph;
* :func:`find_balanced_separator` — the constructive walk of the proof of
  Lemma 3.10, which always returns a balanced separator node;
* :func:`is_balanced_label` — the algorithmic check used by log-k-decomp: a
  candidate λ-label is *balanced* for a component when none of its
  [λ]-components exceeds half the component size.
"""

from __future__ import annotations

from repro.decomp.components import ComponentSplitter
from repro.decomp.extended import BitComp, FragmentNode
from repro.hypergraph import Hypergraph
from repro.hypergraph.bitset import bits_of


def _covered_at(host: Hypergraph, comp: BitComp, node: FragmentNode) -> set[object]:
    """Items of ``comp`` (edge indices / special bitmask markers) covered by χ(node)."""
    covered: set[object] = set()
    for index in bits_of(comp.edges):
        if host.edge_bits(index) & ~node.chi == 0:
            covered.add(index)
    for special in comp.specials:
        if node.is_special_leaf and node.special == special:
            covered.add(("sp", special))
        elif special & ~node.chi == 0 and not node.is_special_leaf:
            # A special edge is only *covered* (in the sense of Definition 3.3)
            # by its dedicated leaf, but for the cov() bookkeeping of
            # Definition 3.4 containment in χ(u) is what matters.
            covered.add(("sp", special))
    return covered


def cov(
    host: Hypergraph, comp: BitComp, fragment: FragmentNode
) -> dict[int, set[object]]:
    """cov(u) for every node ``u`` of the fragment, keyed by ``id(u)``.

    cov(u) is the set of (special) edges of ``comp`` covered at ``u`` for the
    first time, i.e. covered by χ(u) but by no ancestor's χ.
    """
    result: dict[int, set[object]] = {}

    def rec(node: FragmentNode, seen: set[object]) -> None:
        here = _covered_at(host, comp, node) - seen
        result[id(node)] = here
        below = seen | here
        for child in node.children:
            rec(child, below)

    rec(fragment, set())
    return result


def cov_subtree(
    host: Hypergraph,
    comp: BitComp,
    fragment: FragmentNode,
    node: FragmentNode,
    table: dict[int, set[object]] | None = None,
) -> set[object]:
    """cov(T_node): the union of cov(u) over the subtree rooted at ``node``.

    ``table`` may be a precomputed :func:`cov` table of ``fragment``; passing
    it avoids recomputing the table when several subtrees of the same
    fragment are queried.
    """
    if table is None:
        table = cov(host, comp, fragment)
    total: set[object] = set()
    for descendant in node.nodes():
        total |= table[id(descendant)]
    return total


def _cov_mask_sizes(
    host: Hypergraph, comp: BitComp, fragment: FragmentNode
) -> dict[int, int]:
    """|cov(u)| per node, computed on packed masks instead of object sets.

    The bookkeeping of :func:`cov` — "covered here for the first time" —
    tracks edge items as an edge-index bitmask and special items positionally
    (duplicated specials collapse to one position, matching the set
    semantics of :func:`cov` where equal ``("sp", s)`` markers coincide).
    """
    # dict.fromkeys dedupes while keeping order: equal specials are one item.
    specials = tuple(dict.fromkeys(comp.specials))
    edge_bits = host.edge_bits
    counts: dict[int, int] = {}
    # Pre-order with the inherited "already covered above" masks.
    stack: list[tuple[FragmentNode, int, int]] = [(fragment, 0, 0)]
    while stack:
        node, seen_edges, seen_specials = stack.pop()
        chi = node.chi
        here_edges = 0
        rest = comp.edges & ~seen_edges
        while rest:
            low = rest & -rest
            rest ^= low
            if edge_bits(low.bit_length() - 1) & ~chi == 0:
                here_edges |= low
        here_specials = 0
        for position, special in enumerate(specials):
            position_bit = 1 << position
            if seen_specials & position_bit:
                continue
            if node.is_special_leaf:
                if node.special == special:
                    here_specials |= position_bit
            elif special & ~chi == 0:
                here_specials |= position_bit
        counts[id(node)] = here_edges.bit_count() + here_specials.bit_count()
        below_edges = seen_edges | here_edges
        below_specials = seen_specials | here_specials
        for child in node.children:
            stack.append((child, below_edges, below_specials))
    return counts


def subtree_cov_sizes(
    host: Hypergraph,
    comp: BitComp,
    fragment: FragmentNode,
    table: dict[int, set[object]] | None = None,
) -> dict[int, int]:
    """|cov(T_u)| for every node ``u`` of the fragment, keyed by ``id(u)``.

    Requires ``fragment`` to satisfy the HD connectedness condition (true for
    every fragment the searches construct): then an item covered in two
    branches is also covered at their common ancestor, :func:`cov` assigns it
    to exactly one node, and the cov() sets of distinct nodes are disjoint.
    The size of a subtree's union is therefore the sum of its nodes' set
    sizes — one post-order pass computes every subtree size, instead of
    re-walking (and re-unioning) the subtree of each queried node.  For a
    fragment violating connectedness the sums may overcount; use
    :func:`cov_subtree` (set union) there instead.

    Without a caller-supplied ``table`` the per-node counts come from the
    packed-mask bookkeeping (:func:`_cov_mask_sizes`) — no cov() sets are
    materialised; a precomputed :func:`cov` table is honoured when given.
    """
    if table is not None:
        node_counts = {node_id: len(items) for node_id, items in table.items()}
    else:
        node_counts = _cov_mask_sizes(host, comp, fragment)
    sizes: dict[int, int] = {}
    # Iterative post-order: children are summed before their parent.
    stack: list[tuple[FragmentNode, bool]] = [(fragment, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            for child in node.children:
                stack.append((child, False))
        else:
            sizes[id(node)] = node_counts[id(node)] + sum(
                sizes[id(child)] for child in node.children
            )
    return sizes


def is_balanced_separator_node(
    host: Hypergraph,
    comp: BitComp,
    fragment: FragmentNode,
    node: FragmentNode,
    sizes: dict[int, int] | None = None,
) -> bool:
    """Check Definition 3.9 for ``node`` within the HD ``fragment`` of ``comp``.

    ``sizes`` may be a precomputed :func:`subtree_cov_sizes` table; computed
    on demand otherwise.
    """
    half = comp.size / 2
    if sizes is None:
        sizes = subtree_cov_sizes(host, comp, fragment)
    for child in node.children:
        if sizes[id(child)] > half:
            return False
    above = comp.size - sizes[id(node)]
    return above < half


def find_balanced_separator(
    host: Hypergraph, comp: BitComp, fragment: FragmentNode
) -> FragmentNode:
    """The constructive proof of Lemma 3.10: walk down towards the oversized child.

    Starting at the root, if every child subtree covers at most half of the
    (special) edges the current node is a balanced separator; otherwise there
    is exactly one oversized child and the walk continues there.  The walk is
    guaranteed to terminate at a balanced separator.

    The subtree-cover sizes are computed once (one cov() table, one post-order
    pass) and shared across the whole walk.
    """
    half = comp.size / 2
    sizes = subtree_cov_sizes(host, comp, fragment)
    current = fragment
    while True:
        oversized = None
        for child in current.children:
            if sizes[id(child)] > half:
                oversized = child
                break
        if oversized is None:
            return current
        current = oversized


def largest_component_size(host: Hypergraph, comp: BitComp, separator: int) -> int:
    """The size of the largest [separator]-component of ``comp`` (0 if none)."""
    return ComponentSplitter(host, comp, memoize=False).largest_size(separator)


def is_balanced_label(host: Hypergraph, comp: BitComp, separator: int) -> bool:
    """True iff no [separator]-component of ``comp`` exceeds half of |comp|.

    This is the algorithmic balancedness test used by the ChildLoop of
    Algorithm 2 (line 13), applied to the over-approximation ∪λ(c) of χ(c).
    """
    return largest_component_size(host, comp, separator) <= comp.size / 2
