"""[U]-connectedness and [U]-components of extended subhypergraphs.

Implements Definition 3.2 of the paper: two (possibly special) edges f1, f2 of
an extended subhypergraph are [U]-adjacent if (f1 ∩ f2) \\ U ≠ ∅; the
[U]-components are the maximal [U]-connected subsets of E' ∪ Sp.  Edges that
are fully contained in U belong to no component (they are "covered" by U).

The splitter is built for the search hot path, where the *same* component is
split against thousands of candidate separators:

* the fill is pure bit-twiddling over two tables the host builds once
  (:meth:`~repro.hypergraph.Hypergraph.adjacency_masks`, edge → edges sharing
  a vertex, and :meth:`~repro.hypergraph.Hypergraph.incidence_masks`, vertex
  → edges): the unvisited edge set, each discovered group and the edge
  frontier are packed ints.  An edge the separator does not touch shares
  only vertices outside U with its neighbours, so expanding it is a single
  ``adjacency[e] & unvisited``; only an edge that touches U ORs the
  incidence rows of its vertices outside U (those the group has not met
  yet), and specials join through the rows of theirs;
* results are memoised under the *effective* separator
  ``separator & V(comp)`` — λ-labels with equal restriction to the component
  (extremely common in the parent-label loop) share one split;
* the fill hands over one group at a time, so a caller that only asks about
  a large component stops it early: :meth:`ComponentSplitter.largest_size`
  once the unvisited rest cannot beat the largest group so far,
  :meth:`ComponentSplitter.has_oversized` (the balancedness filter) as soon
  as a *growing* group exceeds the limit;
* a fill that finds a group of more than ``limit`` items leaves a *witness*
  ``(interior, size)``: the group's vertices outside the separator and its
  item count.  A decide-only memo miss whose separator is disjoint from a
  witness's interior, with ``size > limit``, is answered True without a
  fill.  Sound because every item of the group holds a vertex of
  ``interior`` and every link the fill followed is one, so such a separator
  covers no item and cuts no link: the group lies whole in one component of
  more than ``limit`` items.  Witnesses never answer "balanced" nor
  :meth:`ComponentSplitter.oversized` (which must return the component);
* the groups reach the searches as :class:`~repro.decomp.extended.BitComp`
  records paired with their vertex sets, which the fill collects anyway (no
  frozenset is built and no V(C) recomputed on the hot path).
"""

from __future__ import annotations

from collections.abc import Iterator
from math import inf

from ..hypergraph import Hypergraph
from ..hypergraph.bitset import bits_of
from ..lru import BoundedLRU
from .extended import BitComp

__all__ = [
    "ComponentSplitter",
    "components",
    "separate",
    "covered_items",
]

#: Bound on the number of memoised effective separators per splitter memo.
#: Splitters are per-subproblem objects, so this mostly guards pathological
#: subproblems with very large candidate pools.
DEFAULT_MEMO_SIZE = 4096

#: Bound on the most-recently-used list of oversized-group witnesses a
#: memoising splitter keeps for :meth:`ComponentSplitter.has_oversized`.
WITNESS_LIST_SIZE = 32


class ComponentSplitter:
    """Repeatedly split one component with many different separators.

    The separator searches of log-k-decomp and det-k-decomp compute the
    [U]-components of the *same* extended subhypergraph for thousands of
    candidate separators U.  This helper works on the packed representation
    (edge-index bitmask + special vertex masks) and offers:

    * :meth:`largest_size` / :meth:`has_oversized` — the size of the largest
      component, or only whether one exceeds a limit (the balancedness
      filter), without allocating component objects;
    * :meth:`oversized` — that one component alone, with its vertex set;
    * :meth:`split_with_vertices` / :meth:`split_bits` — the components as
      :class:`BitComp` records, with or without their vertex sets.

    All are memoised (LRU, keyed by the effective separator) unless
    ``memoize=False``; ``stats`` may be a
    :class:`~repro.core.base.SearchStatistics` recording memo hits/misses and
    mask-table builds.  ``vertices`` is V(comp) when the caller already holds
    it (the split that produced ``comp`` does); otherwise it is derived.
    """

    __slots__ = (
        "host",
        "comp",
        "stats",
        "_edges_mask",
        "_special_bits",
        "_all_specials_mask",
        "_comp_vertices",
        "_edge_masks",
        "_incidence",
        "_adjacency",
        "_memoize",
        "_split_memo",
        "_largest_memo",
        "_oversized_memo",
        "_witnesses",
    )

    def __init__(
        self,
        host: Hypergraph,
        comp: BitComp,
        memoize: bool = True,
        stats=None,
        vertices: int | None = None,
    ) -> None:
        self.host = host
        self.comp = comp
        self.stats = stats
        self._edges_mask = comp.edges
        self._special_bits = comp.specials
        self._all_specials_mask = (1 << len(comp.specials)) - 1
        if stats is not None and not host.has_incidence_masks:
            stats.mask_table_builds += 1
        self._edge_masks = host.edge_masks
        self._incidence = host.incidence_masks()
        self._adjacency = host.adjacency_masks()
        self._comp_vertices = comp.vertices(host) if vertices is None else vertices
        self._memoize = memoize
        self._split_memo: BoundedLRU = BoundedLRU(DEFAULT_MEMO_SIZE)
        self._largest_memo: BoundedLRU = BoundedLRU(DEFAULT_MEMO_SIZE)
        self._oversized_memo: BoundedLRU = BoundedLRU(DEFAULT_MEMO_SIZE)
        # (interior, size) of oversized groups found by fills, most recent
        # first; see the module docstring.
        self._witnesses: list[tuple[int, int]] = []

    @property
    def comp_vertices(self) -> int:
        """V(comp) as a bitmask (union of all items)."""
        return self._comp_vertices

    # ------------------------------------------------------------------ #
    # flood fill over the edge-adjacency table
    # ------------------------------------------------------------------ #
    def _flood(
        self, effective: int, abort_above: float = inf
    ) -> Iterator[tuple[int, int, int, int]]:
        """Yield the [effective]-components, one ``(edge_mask, special_mask,
        vertices, remaining)`` tuple per group, as the fill finishes them.

        ``edge_mask`` is over host edge indices, ``special_mask`` over the
        positions of this component's specials tuple, ``vertices`` is V(group)
        — separator vertices its items touch included — and ``remaining``
        counts the items not yet visited, so a consumer that only looks for a
        large component can stop once nothing left can matter.  With a finite
        ``abort_above`` a group is yielded *incomplete* the moment it holds
        more than that many items, and the fill ends there: enough to decide
        balancedness, useless as a component.
        """
        edge_masks = self._edge_masks
        incidence = self._incidence
        adjacency = self._adjacency
        edges_at = self._edges_at
        specials = self._special_bits
        outside = ~effective
        unvisited = self._edges_mask
        unvisited_sp = self._all_specials_mask
        while unvisited or unvisited_sp:
            # Start a new group at the lowest unvisited item (edges first,
            # matching the deterministic item order of the set-based fill).
            # ``frontier`` holds the member edges not expanded yet; the
            # member edges are the ones ``unvisited`` lost since ``before``.
            before = unvisited
            if unvisited:
                frontier = unvisited & -unvisited
                unvisited ^= frontier
                if edge_masks[frontier.bit_length() - 1] & outside == 0:
                    continue  # fully covered by the separator: in no component
                member_sp = vertices = 0
            else:
                member_sp = unvisited_sp & -unvisited_sp
                unvisited_sp ^= member_sp
                vertices = specials[member_sp.bit_length() - 1]
                if vertices & outside == 0:
                    continue
                frontier = edges_at(vertices & outside) & unvisited
                unvisited ^= frontier
            # The group exceeds ``abort_above`` once fewer than ``floor``
            # edges are left unvisited.
            floor = before.bit_count() + member_sp.bit_count() - abort_above
            while True:
                while frontier:
                    edge = frontier.bit_length() - 1
                    frontier ^= 1 << edge
                    bits = edge_masks[edge]
                    if bits & effective:
                        # Only the vertices outside the separator connect,
                        # and the edges at a live vertex of ``vertices``
                        # have all been taken already.
                        live = bits & outside & ~vertices
                        new_edges = 0
                        while live:
                            low = live & -live
                            live ^= low
                            new_edges |= incidence[low.bit_length() - 1]
                        new_edges &= unvisited
                    else:
                        # Every shared vertex lies outside the separator.
                        new_edges = adjacency[edge] & unvisited
                    vertices |= bits
                    if new_edges:
                        unvisited ^= new_edges
                        frontier |= new_edges
                        if unvisited.bit_count() < floor:
                            yield before ^ unvisited, member_sp, vertices, 0
                            return
                # Specials sharing a live vertex with the group join it and
                # bring the edges at their new live vertices; a special may
                # connect an earlier one, so loop until a pass absorbs none.
                absorbed = False
                rest = unvisited_sp
                while rest:
                    sp_bit = rest & -rest
                    rest ^= sp_bit
                    sp_vertices = specials[sp_bit.bit_length() - 1]
                    if sp_vertices & vertices & outside:
                        absorbed = True
                        unvisited_sp ^= sp_bit
                        member_sp |= sp_bit
                        floor += 1
                        new_edges = edges_at(sp_vertices & ~vertices & outside) & unvisited
                        unvisited ^= new_edges
                        frontier |= new_edges
                        vertices |= sp_vertices
                if not absorbed:
                    break
            remaining = unvisited.bit_count() + unvisited_sp.bit_count()
            yield before ^ unvisited, member_sp, vertices, remaining

    def _edges_at(self, vertices: int) -> int:
        """The host edges containing some vertex of ``vertices``."""
        incidence = self._incidence
        edges = 0
        while vertices:
            low = vertices & -vertices
            vertices ^= low
            edges |= incidence[low.bit_length() - 1]
        return edges

    def _bitcomp(self, edge_mask: int, special_mask: int) -> BitComp:
        specials = self._special_bits
        return BitComp(edge_mask, tuple(specials[i] for i in bits_of(special_mask)))

    def _lookup(self, memo: BoundedLRU, key):
        """Memo read that keeps the hit/miss counters; None when absent."""
        if not self._memoize:
            return None
        cached = memo.get(key)
        if self.stats is not None:
            if cached is None:
                self.stats.splitter_memo_misses += 1
            else:
                self.stats.splitter_memo_hits += 1
        return cached

    # ------------------------------------------------------------------ #
    # public operations
    # ------------------------------------------------------------------ #
    def largest_size(self, separator: int) -> int:
        """Size of the largest [separator]-component (0 if everything is covered)."""
        effective = separator & self._comp_vertices
        if self._memoize:
            stats = self.stats
            cached = self._largest_memo.get(effective)
            if cached is not None:
                if stats is not None:
                    stats.splitter_memo_hits += 1
                return cached
            split_cached = self._split_memo.get(effective)
            if split_cached is not None:
                # Served from the full split: a memo hit, not a miss.
                if stats is not None:
                    stats.splitter_memo_hits += 1
                largest = max((c.size for c, _ in split_cached), default=0)
                self._largest_memo.put(effective, largest)
                return largest
            if stats is not None:
                stats.splitter_memo_misses += 1
        largest = 0
        for edges, sp, _, remaining in self._flood(effective):
            largest = max(largest, edges.bit_count() + sp.bit_count())
            if remaining <= largest:
                break  # nothing left can beat the current largest
        if self._memoize:
            self._largest_memo.put(effective, largest)
        return largest

    def _oversized(self, separator: int, limit: float, whole: bool):
        """Shared body of :meth:`has_oversized` (``whole=False``) and
        :meth:`oversized`; the memo holds False, True (decided only) or the
        ``(BitComp, V)`` pair.  At most one group can exceed a limit of half
        the component or more, so the first one found is the answer."""
        effective = separator & self._comp_vertices
        key = (effective, limit)
        cached = self._lookup(self._oversized_memo, key)
        if cached is None or (whole and cached is True):
            cached = False
            if not whole and self._witnessed(effective, limit):
                cached = True
            else:
                for edges, sp, vertices, remaining in self._flood(
                    effective, inf if whole else limit
                ):
                    size = edges.bit_count() + sp.bit_count()
                    if size > limit:
                        cached = (self._bitcomp(edges, sp), vertices) if whole else True
                        if self._memoize:
                            self._witness(vertices & ~effective, size)
                        break
                    if remaining <= limit:
                        break  # nothing left can exceed the limit
            if self._memoize:
                self._oversized_memo.put(key, cached)
        return cached

    def _witnessed(self, effective: int, limit: float) -> bool:
        """Whether a witness proves a group of more than ``limit`` items
        survives ``effective``; the witness that does moves to the front."""
        witnesses = self._witnesses
        for position, (interior, size) in enumerate(witnesses):
            if size > limit and not effective & interior:
                if position:
                    witnesses.insert(0, witnesses.pop(position))
                return True
        return False

    def _witness(self, interior: int, size: int) -> None:
        """Record an oversized group at the front of the witness list."""
        witnesses = self._witnesses
        witnesses.insert(0, (interior, size))
        if len(witnesses) > WITNESS_LIST_SIZE:
            witnesses.pop()

    def has_oversized(self, separator: int, limit: float) -> bool:
        """True iff some [separator]-component has more than ``limit`` items.

        The balancedness filter: equal to ``largest_size(separator) > limit``,
        but the fill is left as soon as a growing group exceeds the limit
        instead of measuring the largest component.
        """
        return self._oversized(separator, limit, whole=False) is not False

    def oversized(self, separator: int, limit: float) -> tuple[BitComp, int] | None:
        """The [separator]-component with more than ``limit`` items and its
        vertex set V, or None — the other components are never built."""
        return self._oversized(separator, limit, whole=True) or None

    def split_with_vertices(self, separator: int) -> tuple[tuple[BitComp, int], ...]:
        """The [separator]-components, packed, each paired with its V.

        In a deterministic order, which keeps the search (and therefore the
        produced decompositions) reproducible: by smallest edge index, groups
        of specials only last — the order the fill finds them in, as every
        group starts at the lowest item not yet visited.
        """
        effective = separator & self._comp_vertices
        result = self._lookup(self._split_memo, effective)
        if result is None:
            result = tuple(
                (self._bitcomp(edges, sp), vertices)
                for edges, sp, vertices, _ in self._flood(effective)
            )
            if self._memoize:
                self._split_memo.put(effective, result)
        return result

    def split_bits(self, separator: int) -> list[BitComp]:
        """The [separator]-components of the wrapped component."""
        return [part for part, _ in self.split_with_vertices(separator)]


def components(host: Hypergraph, comp: BitComp, separator: int) -> list[BitComp]:
    """Return the [separator]-components of ``comp`` (Definition 3.2).

    ``separator`` is a vertex bitmask U.  The result is a list of
    :class:`BitComp` values whose edge sets and special-edge tuples partition
    the items of ``comp`` that are *not* fully covered by U.
    """
    return ComponentSplitter(host, comp, memoize=False).split_bits(separator)


def covered_items(host: Hypergraph, comp: BitComp, separator: int) -> BitComp:
    """The edges and special edges of ``comp`` fully contained in ``separator``."""
    edge_masks = host.edge_masks
    return BitComp.of(
        (index for index in bits_of(comp.edges) if edge_masks[index] & ~separator == 0),
        (s for s in comp.specials if s & ~separator == 0),
    )


def separate(
    host: Hypergraph, comp: BitComp, separator: int
) -> tuple[list[BitComp], BitComp]:
    """Return ``(components, covered)`` for ``comp`` w.r.t. ``separator``."""
    return components(host, comp, separator), covered_items(host, comp, separator)
