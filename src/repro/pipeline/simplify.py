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

*Cost.*  Each reduction is one pass over the incidences per round.  Both
build a table from each vertex to the bitmask of the positions of the edges
holding it.  Reduction 1 reads the surviving edges that contain ``e`` as one
AND-chain over the rows of ``e``'s vertices, and takes as witness the first
of them, in position order, that is a proper superset or a duplicate with a
smaller name — the edge an all-pairs scan in position order would find.
Reduction 2 keys the membership classes by those rows.  No pair of edges is
compared; the work is O(Σ|e|) big-integer operations per round.

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
from ..hypergraph import Hypergraph

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

    @property
    def removed_edges(self) -> list[RemovedEdge]:
        return [s for s in self.steps if isinstance(s, RemovedEdge)]

    @property
    def collapsed_vertices(self) -> list[CollapsedVertices]:
        return [s for s in self.steps if isinstance(s, CollapsedVertices)]

    def summary(self) -> str:
        """One-line human-readable account of what the simplifier did."""
        return (
            f"{self.original.num_edges}->{self.reduced.num_edges} edges, "
            f"{self.original.num_vertices}->{self.reduced.num_vertices} vertices"
        )


def _incidence(edges: dict[str, frozenset[str]]) -> dict[str, int]:
    """Vertex -> bitmask of the positions (in ``edges``) of the edges holding it."""
    table: dict[str, int] = {}
    for position, vertices in enumerate(edges.values()):
        bit = 1 << position
        for vertex in vertices:
            table[vertex] = table.get(vertex, 0) | bit
    return table


def _remove_subsumed(
    edges: dict[str, frozenset[str]], steps: list
) -> dict[str, frozenset[str]]:
    """Drop every edge contained in another surviving edge."""
    names = list(edges)
    sizes = [len(edges[name]) for name in names]
    incidence = _incidence(edges)
    # Deterministic scan order: smaller edges first (they can only be the
    # subsumed side); ties broken by name so duplicates keep the smaller name.
    order = sorted(range(len(names)), key=lambda p: (sizes[p], names[p]))
    everything = surviving = (1 << len(names)) - 1
    for position in order:
        name, size, bit = names[position], sizes[position], 1 << position
        # The surviving edges containing this one: an AND-chain of its rows.
        candidates = surviving ^ bit
        for vertex in edges[name]:
            candidates &= incidence[vertex]
            if not candidates:
                break
        # The first in position order that is a proper superset, or an exact
        # duplicate with a smaller name, is the witness.
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            other = low.bit_length() - 1
            if sizes[other] > size or names[other] < name:
                surviving ^= bit
                steps.append(RemovedEdge(name=name, witness=names[other]))
                break
    if surviving == everything:
        return edges
    return {
        name: edges[name]
        for position, name in enumerate(names)
        if surviving >> position & 1
    }


def _collapse_vertices(
    edges: dict[str, frozenset[str]], steps: list
) -> dict[str, frozenset[str]]:
    """Collapse every class of identical-membership vertices onto one vertex."""
    classes: dict[int, list[str]] = {}
    for vertex, edge_mask in _incidence(edges).items():
        classes.setdefault(edge_mask, []).append(vertex)

    to_remove: set[str] = set()
    for group in classes.values():
        if len(group) < 2:
            continue
        group.sort()
        representative, partners = group[0], tuple(group[1:])
        steps.append(CollapsedVertices(representative=representative, removed=partners))
        to_remove.update(partners)
    if not to_remove:
        return edges
    return {
        name: frozenset(v for v in vertices if v not in to_remove)
        for name, vertices in edges.items()
    }


def simplify(hypergraph: Hypergraph) -> SimplificationTrace:
    """Apply the width-preserving reductions (one pass reaches the fixpoint).

    Returns a :class:`SimplificationTrace` whose ``reduced`` hypergraph has
    the same hypertree width as ``hypergraph`` and whose ``steps`` allow
    :func:`lift_decomposition` to re-host any HD of the reduced instance on
    the original.  When nothing reduces, ``reduced`` *is* the input object
    (no copy is made).
    """
    steps: list[RemovedEdge | CollapsedVertices] = []
    edges = _collapse_vertices(_remove_subsumed(hypergraph.edges_as_dict(), steps), steps)
    if not steps:
        return SimplificationTrace(original=hypergraph, reduced=hypergraph)
    # Preserve the original edge order for the survivors (stable, and keeps
    # canonical hashes of equal reductions identical regardless of history).
    ordered = {
        name: edges[name] for name in hypergraph.edge_names if name in edges
    }
    reduced = Hypergraph(ordered, name=hypergraph.name)
    return SimplificationTrace(original=hypergraph, reduced=reduced, steps=steps)


def _rebuild(node: DecompositionNode, expand) -> DecompositionNode:
    return DecompositionNode(
        bag=frozenset(expand(node.bag)),
        cover=node.cover,
        children=[_rebuild(child, expand) for child in node.children],
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
