"""Width-preserving hypergraph simplification with a reversible trace.

The practical solvers the paper benchmarks against (BalancedGo,
det-k-decomp, HtdSMT) never search on the raw input: they first shrink the
hypergraph with cheap reductions that provably do not change the hypertree
width, and only then run the expensive search.  This module implements the
two reductions that are safe for *hypertree* decompositions (where the
special condition constrains how a solution of the reduced instance may be
transformed) together with the bookkeeping needed to turn an HD of the
reduced instance back into an HD of the original one.

Reduction 1 — subsumed-edge removal
    An edge ``e`` with ``e ⊆ f`` for some other edge ``f`` is dropped
    (duplicate edges are the special case ``e = f`` as vertex sets; the
    lexicographically smaller name survives).

    *Why width-preserving.*  Any HD of the reduced hypergraph is literally an
    HD of the original: the bag that covers ``f`` also covers ``e``
    (condition 1); the vertex set is unchanged because every vertex of ``e``
    also occurs in ``f``, so connectedness (condition 2), bag coverage
    (condition 3) and the special condition (condition 4) are untouched, and
    no λ-label referenced ``e``.  Conversely any HD of the original is an HD
    of the reduced instance (fewer edges to cover).  Hence
    ``hw(H') = hw(H)`` and lifting is the identity on the tree — only the
    host hypergraph is swapped back.

Reduction 2 — vertex collapse (degree-one / interchangeable vertices)
    Vertices with *identical edge membership* (they occur in exactly the same
    set of edges) are interchangeable for the decomposition search: one
    representative is kept, the others are removed from every edge.  The most
    common case is an edge with several private (degree-one) vertices — they
    all occur only in that edge, so they collapse onto a single private
    representative.  This is the HD-safe form of the degree-one-vertex
    elimination rule: removing the *last* private vertex of an edge would
    change the edge itself and is **not** in general liftable through the
    special condition, so one representative always stays behind.

    *Why width-preserving.*  λ-labels are sets of edges and no edge is
    removed, so widths are unaffected.  Given an HD of the reduced instance,
    the lift adds every removed vertex ``v`` to exactly the bags that contain
    its representative ``r``.  All four HD conditions survive:

    1. *Edge coverage* — the bag covering reduced ``E`` contains ``r`` for
       every collapsed class meeting ``E``, so it gains the partners and
       covers the original ``E``.
    2. *Connectedness* — the nodes containing ``v`` are exactly the nodes
       containing ``r``, a subtree by induction.
    3. *Bag coverage* (χ(u) ⊆ ∪λ(u)) — if ``r ∈ χ(u)`` then some edge of
       λ(u) contains ``r``; that edge's original form contains ``v`` as well
       (identical membership), and ∪λ(u) is evaluated on the original edges
       after the lift.
    4. *Special condition* (χ(T_u) ∩ ∪λ(u) ⊆ χ(u)) — ``v`` appears in
       χ(T_u) iff ``r`` does, and ``v ∈ ∪λ(u)`` iff ``r ∈ ∪λ(u)`` (again
       identical membership), so a violation involving ``v`` would already be
       a violation involving ``r``.

    Conversely, restricting the bags of an HD of the original to the reduced
    vertex set yields an HD of the reduced instance, so the width is
    preserved in both directions and a ``k``-refutation on the reduced
    instance is a valid refutation for the original.

*Cost.*  Both reductions run on the host's edge bitmasks and one table from
each vertex id to the bitmask of the positions of the edges holding it.
Reduction 1 reads the other edges that contain ``e`` as one AND-chain over
the rows of ``e``'s vertices, and takes as witness the first of them, in
position order, that survives and is a proper superset or a duplicate with
a smaller name — the edge an all-pairs scan in position order would find.
Reduction 2 keys the membership classes by those rows.  No pair of edges is
compared; the work is O(Σ|e|) big-integer operations, and an input that
reduces nothing (no AND-chain finds another edge, no two rows are equal)
costs that one pass and builds nothing else.

Removing edges can make memberships equal, so the collapse runs after the
removal.  One pass of the two reaches the fixpoint: a collapse creates no
subsumption (a removed partner lies in exactly its representative's edges),
so a second pass would find nothing.  :func:`simplify` records each step in
a :class:`SimplificationTrace`.
:func:`lift_decomposition` replays the trace in reverse to re-host a
decomposition of the reduced instance on the original hypergraph.

Splitting into connected components (the third preprocessing step the
engine performs) lives in :mod:`repro.pipeline.engine`, since it needs no
trace: HDs of disjoint components are simply grafted under one root, which
is width-preserving because ∪λ(u) of a node never meets another component's
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..decomp.decomposition import Decomposition, DecompositionNode
from ..hypergraph import Hypergraph, bitset

__all__ = [
    "RemovedEdge",
    "CollapsedVertices",
    "SimplificationTrace",
    "simplify",
    "lift_decomposition",
]


@dataclass(frozen=True)
class RemovedEdge:
    """A subsumed (or duplicate) edge that was dropped, with its witness."""

    name: str
    witness: str  # surviving edge with ``edge ⊆ witness``


@dataclass(frozen=True)
class CollapsedVertices:
    """A class of identical-membership vertices collapsed onto a representative."""

    representative: str
    removed: tuple[str, ...]


@dataclass
class SimplificationTrace:
    """The outcome of :func:`simplify`: the reduced instance plus a replayable log.

    ``steps`` holds :class:`RemovedEdge` and :class:`CollapsedVertices`
    entries in the order they were applied; :func:`lift_decomposition`
    processes them in reverse.
    """

    original: Hypergraph
    reduced: Hypergraph
    steps: list[RemovedEdge | CollapsedVertices] = field(default_factory=list)

    @property
    def reduced_anything(self) -> bool:
        """True iff at least one reduction step applied."""
        return bool(self.steps)

    def summary(self) -> str:
        """One-line human-readable account of what the simplifier did."""
        return (
            f"{self.original.num_edges}->{self.reduced.num_edges} edges, "
            f"{self.original.num_vertices}->{self.reduced.num_vertices} vertices"
        )


def _incidence_rows(masks: tuple[int, ...], num_vertices: int) -> list[int]:
    """Vertex id -> bitmask of the positions of the edges holding it.

    The transpose of ``masks``.  Built here rather than through
    :meth:`Hypergraph.incidence_masks`, so that simplifying leaves the
    host's cached table to the search (which counts building it).
    """
    rows = [0] * num_vertices
    for position, mask in enumerate(masks):
        bit = 1 << position
        while mask:
            low = mask & -mask
            rows[low.bit_length() - 1] |= bit
            mask ^= low
    return rows


def _remove_subsumed(hypergraph: Hypergraph, rows: list[int], steps: list) -> int:
    """Drop every edge contained in another surviving edge.

    Returns the survivors as a bitmask over edge positions."""
    masks = hypergraph.edge_masks
    everything = surviving = hypergraph.all_edges_mask
    # The other edges containing each edge: an AND-chain of its vertices' rows.
    containing = []
    for position, mask in enumerate(masks):
        candidates = everything ^ (1 << position)
        while mask and candidates:
            low = mask & -mask
            candidates &= rows[low.bit_length() - 1]
            mask ^= low
        containing.append(candidates)
    if not any(containing):
        return everything
    names = hypergraph.edge_names
    sizes = [mask.bit_count() for mask in masks]
    # Deterministic scan order: smaller edges first (they can only be the
    # subsumed side); ties broken by name so duplicates keep the smaller name.
    for position in sorted(range(len(masks)), key=lambda p: (sizes[p], names[p])):
        candidates = containing[position] & surviving
        # The first in position order that is a proper superset, or an exact
        # duplicate with a smaller name, is the witness.
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            other = low.bit_length() - 1
            if sizes[other] > sizes[position] or names[other] < names[position]:
                surviving ^= 1 << position
                steps.append(RemovedEdge(name=names[position], witness=names[other]))
                break
    return surviving


def _collapse_vertices(
    hypergraph: Hypergraph, rows: list[int], surviving: int, steps: list
) -> int:
    """Collapse every class of identical-membership vertices onto one vertex.

    Memberships count the ``surviving`` edges only.  Returns the bitmask of
    the vertex ids removed.
    """
    if surviving != hypergraph.all_edges_mask:
        rows = [row & surviving for row in rows]
    if len(set(rows)) == len(rows):
        return 0
    classes: dict[int, list[int]] = {}
    for vertex_id, row in enumerate(rows):
        classes.setdefault(row, []).append(vertex_id)
    names = hypergraph.vertex_names
    groups = [sorted(names[v] for v in group) for group in classes.values() if len(group) > 1]

    def first_met(group: list[str]) -> tuple[int, int]:
        # Where a scan of the surviving edges in position order, each edge's
        # vertices in ``edge_vertices`` order, first meets the class: in the
        # first edge of its row, at its earliest member there.
        row = rows[hypergraph.vertex_id(group[0])]
        edge = (row & -row).bit_length() - 1
        return edge, [v in group for v in hypergraph.edge_vertices(edge)].index(True)

    removed = 0
    for group in sorted(groups, key=first_met):
        steps.append(CollapsedVertices(representative=group[0], removed=tuple(group[1:])))
        for partner in group[1:]:
            removed |= 1 << hypergraph.vertex_id(partner)
    return removed


def simplify(hypergraph: Hypergraph) -> SimplificationTrace:
    """Apply the width-preserving reductions (one pass reaches the fixpoint).

    Returns a :class:`SimplificationTrace` whose ``reduced`` hypergraph has
    the same hypertree width as ``hypergraph`` and whose ``steps`` allow
    :func:`lift_decomposition` to re-host any HD of the reduced instance on
    the original.  When nothing reduces, ``reduced`` *is* the input object
    (no copy is made).
    """
    steps: list[RemovedEdge | CollapsedVertices] = []
    masks = hypergraph.edge_masks
    rows = _incidence_rows(masks, hypergraph.num_vertices)
    surviving = _remove_subsumed(hypergraph, rows, steps)
    removed = _collapse_vertices(hypergraph, rows, surviving, steps)
    if not steps:
        return SimplificationTrace(original=hypergraph, reduced=hypergraph)
    # The survivors keep the original edge order (stable, and keeps
    # canonical hashes of equal reductions identical regardless of history).
    keep, names = hypergraph.all_vertices_mask ^ removed, hypergraph.vertex_names
    edges = {
        hypergraph.edge_name(p): [names[v] for v in bitset.bits_of(masks[p] & keep)]
        for p in bitset.bits_of(surviving)
    }
    reduced = Hypergraph(edges, name=hypergraph.name)
    return SimplificationTrace(original=hypergraph, reduced=reduced, steps=steps)


def _rebuild(node: DecompositionNode, expand) -> DecompositionNode:
    return DecompositionNode(
        bag=frozenset(expand(node.bag)),
        cover=node.cover,
        children=tuple(_rebuild(child, expand) for child in node.children),
    )


def lift_decomposition(
    trace: SimplificationTrace, decomposition: Decomposition
) -> Decomposition:
    """Re-host a decomposition of ``trace.reduced`` on ``trace.original``.

    The returned object has the same class as ``decomposition`` (plain
    :class:`HypertreeDecomposition`, generalized, ...), so GHD results keep
    their weaker promise.

    Collapse steps are replayed in reverse: wherever a bag contains a class
    representative, the collapsed partners are re-inserted (transitively, so
    representatives that were themselves collapsed in a later round are
    restored first).  Edge-removal steps need no bag surgery — the λ-labels
    of the reduced instance are a subset of the original edges, and the
    removed edges are covered by their witnesses' bags (see the module
    docstring for the full argument).  The width of the returned
    decomposition equals the width of ``decomposition``.
    """
    expansions: list[CollapsedVertices] = [
        step for step in trace.steps if isinstance(step, CollapsedVertices)
    ]

    def expand(bag: frozenset[str]) -> set[str]:
        result = set(bag)
        # Reverse order restores transitively-collapsed classes correctly:
        # if round 2 collapsed r into s and round 1 collapsed a into r, then
        # restoring s -> r first makes the r -> a restoration applicable.
        for step in reversed(expansions):
            if step.representative in result:
                result.update(step.removed)
        return result

    root = _rebuild(decomposition.root, expand)
    return type(decomposition)(trace.original, root)
