"""Enumeration of candidate λ-labels (edge covers / separators).

All decomposition algorithms in this library search over λ-labels: subsets of
at most ``k`` edges of the host hypergraph.  This module centralises that
enumeration together with the pruning rules described in Appendix C of the
paper:

* *allowed edges* — only edges from a caller-supplied set may be used,
* *progress* — at least one edge must come from the current component's edge
  set (a label of "old" edges only violates the normal form),
* *overlap* — for the parent label search, only edges intersecting ∪λ(c) are
  considered,
* *conn covering* — for det-k-decomp, the label must cover the Conn interface.

Edge pools (``allowed``, ``require_from``) are edge-index bitmasks, the form
the searches' components carry them in; labels come out as index tuples.

Enumeration-order contract
--------------------------
The enumeration yields labels in a deterministic order: smaller labels first,
and within a size lexicographically by edge index.  Determinism matters both
for reproducible experiments and for the search-space partitioning used by the
parallel backend (:mod:`repro.core.parallel`): a worker owns exactly the labels
whose *smallest* edge index falls into its partition, so the workers' streams
must be subsequences of one globally agreed order for "all workers failed" to
be a sound "no" answer.

The enumerator is a recursive branch-and-bound search rather than a filter
over :func:`itertools.combinations`:

* the running ∪λ bitmask of the prefix is carried incrementally down the
  search tree, so the enumerator itself never recomputes a union or builds a
  ``set(label)`` per label (labels come out as bare index tuples; a search
  that needs ∪λ calls :func:`label_union` on the ones it tries);
* the *progress* rule is enforced structurally — a branch is abandoned as soon
  as no ``require_from`` edge remains in the candidate suffix;
* a ``cover`` requirement prunes whole branches through precomputed
  suffix-union masks: if even the union of every remaining pool edge cannot
  close the uncovered gap, no descendant label can, and because suffixes only
  shrink to the right the entire remaining sibling range is cut;
* the last position *closes the gap*: while cover vertices are still open the
  last edge must contain all of them, so its candidates are one AND-chain —
  the surviving pool as an edge-index mask ∩ the indices from the current
  position on ∩ ``require_from`` (when no progress edge is chosen yet) ∩ the
  incidence rows of the gap's vertices — emitted in ascending index, instead
  of a test of every remaining pool edge;
* the prunes and the gap-closing chain skip only labels the filter rejects,
  so the output sequence is byte-identical to the ``itertools.combinations``
  filter it replaced (``tests/oracles/labels.py``, which the differential
  tests hold it against).

Width-safe subedge domination
-----------------------------
When a caller passes ``component_vertices`` (the vertex set V of the current
component as a bitmask), the candidate pool is pre-filtered: an allowed edge
``e`` is *dominated* and skipped when some other allowed edge ``f`` satisfies
``e ∩ V ⊆ f ∩ V`` (with a smallest-index tie-break when the restrictions are
equal, and never preferring an "old" edge over a ``require_from`` edge).

Correctness argument.  Dropping pool edges only removes labels, so every
answer found under domination is one the full search could produce —
*soundness* is automatic.  Completeness splits into two cases:

* *Equal restrictions* (``e ∩ V = f ∩ V``) — outcome-preserving, exactly.
  Map any dropped label L ∋ e to L' = (L \\ {e}) ∪ {f}: same size, identical
  restriction ∪L' ∩ V = ∪L ∩ V.  Every quantity the searches derive from a
  label — the bag χ = ∪λ ∩ V', the component split, the Conn-covering,
  balancedness and connectedness checks, the recursive subproblems — depends
  on λ only through that restriction, so L' passes iff L does, and the bags
  of the produced fragments are unchanged (bags live inside V, so condition 3
  and the special condition are unaffected by the swap of edge identities).
* *Strict containment* (``e ∩ V ⊊ f ∩ V``) — width-safe by the replacement
  map (|L'| <= |L| <= k and ∪L' ∩ V ⊇ ∪L ∩ V): the replacement covers at
  least as much of Conn and splits the component at least as finely, so every
  *monotone* acceptance condition keeps holding.  The oversized-component
  test of log-k-decomp's parent loop is the one non-monotone site (a finer
  split may lose the >half component), which is why
  :meth:`labels` offers ``strict_domination=False`` — the parent-label
  enumeration restricts itself to the provably exact equal-restriction
  collapse, while the child-label and det-k enumerations, whose acceptance
  conditions are monotone in the restriction, apply full containment (the
  same preprocessing BalancedGo-style solvers ship).  The engine-level
  differential tests exercise this end-to-end (domination on vs. off must
  agree on success across the random corpus); the ``subedge_domination``
  flags on the decomposers switch it off for the ablation study.

The progress rule is preserved in both cases because a ``require_from`` edge
is never dominated by a non-``require_from`` edge.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from ..hypergraph import Hypergraph
from ..hypergraph.bitset import bits_of, from_indices, indices_of
from ..lru import BoundedLRU

__all__ = ["CoverEnumerator", "label_union"]

#: Bound on the number of memoised dominated pools per enumerator.
DOMINATION_MEMO_SIZE = 2048

#: Backtracks of one enumeration between two deadline polls.
_DEADLINE_STRIDE = 4096


def label_union(host: Hypergraph, label: Sequence[int]) -> int:
    """∪λ as a vertex bitmask for a label given as edge indices."""
    edge_masks = host.edge_masks
    mask = 0
    for index in label:
        mask |= edge_masks[index]
    return mask


def _edges_containing(incidence: Sequence[int], vertices: int, candidates: int) -> int:
    """The edges of ``candidates`` (an edge-index bitmask) that contain every
    vertex of ``vertices``: one AND-chain over the incidence rows."""
    while vertices and candidates:
        low = vertices & -vertices
        vertices ^= low
        candidates &= incidence[low.bit_length() - 1]
    return candidates


class CoverEnumerator:
    """Enumerates λ-label candidates over a host hypergraph.

    Parameters
    ----------
    host:
        The hypergraph whose edges form the candidate pool.
    k:
        The width parameter; labels have between 1 and ``k`` edges.

    Attributes
    ----------
    stats:
        Optional :class:`~repro.core.base.SearchStatistics`; when set (the
        :class:`~repro.core.base.SearchContext` wires it up) the enumerator
        records ``enum_branches_pruned`` and ``enum_domination_skips``.
    deadline:
        Optional :class:`~repro.deadline.Deadline`, wired up the same way and
        polled every ``_DEADLINE_STRIDE`` backtracks: one enumeration can
        walk millions of prefixes without yielding a label.
    """

    def __init__(self, host: Hypergraph, k: int) -> None:
        if k < 1:
            raise ValueError("width parameter k must be >= 1")
        self.host = host
        self.k = k
        self.stats = None
        self.deadline = None
        self._domination_memo: BoundedLRU = BoundedLRU(DOMINATION_MEMO_SIZE)
        #: Edge-index mask of the host edges contained in another host edge
        #: (an equal twin counts); built on the first strict domination call.
        self._contained: int | None = None

    # ------------------------------------------------------------------ #
    # enumeration
    # ------------------------------------------------------------------ #
    def labels(
        self,
        allowed: int | None = None,
        require_from: int | None = None,
        overlap_with: int | None = None,
        cover: int | None = None,
        component_vertices: int | None = None,
        strict_domination: bool = True,
    ) -> Iterator[tuple[int, ...]]:
        """Yield candidate labels as sorted tuples of edge indices.

        Parameters
        ----------
        allowed:
            The edges that may appear in the label, as an edge-index bitmask
            (``None`` = every edge of the host).
        require_from:
            If given and non-zero (an edge-index bitmask), at least one edge
            of the label must come from it (the "progress" rule of the
            normal form); ``None`` and ``0`` both mean no such constraint.
        overlap_with:
            If given (a vertex bitmask), every edge of the label must share a
            vertex with it (the parent-label pruning of Appendix C).
        cover:
            If given (a vertex bitmask), the union of the label must contain
            it (det-k-decomp's Conn-covering requirement).
        component_vertices:
            If given (the component's vertex bitmask), enables width-safe
            subedge domination over the pool (see the module docstring).
        strict_domination:
            ``True`` applies full-containment domination; ``False`` only the
            outcome-preserving equal-restriction collapse (the parent-label
            loop of log-k-decomp requires the weaker mode, see the module
            docstring).  Irrelevant without ``component_vertices``.
        """
        return self._branch_and_bound(
            allowed, require_from, overlap_with, cover,
            component_vertices, strict_domination, None,
        )

    # ------------------------------------------------------------------ #
    # branch-and-bound core
    # ------------------------------------------------------------------ #
    def _dominated_pool(
        self,
        pool_mask: int,
        require: int | None,
        component_vertices: int,
        strict: bool,
    ) -> list[int]:
        """Drop pool edges dominated within the component (module docstring).

        Edge ``e`` is dominated by ``f`` iff ``e ∩ V ⊆ f ∩ V`` (with
        ``strict=False`` only ``e ∩ V = f ∩ V``), ``f`` is at least as
        eligible for the progress rule as ``e``, and — when the restrictions
        are exactly equal and both edges have the same progress status —
        ``f`` has the smaller index, so exactly one representative of every
        equivalence class survives, deterministically.

        ``pool_mask`` and ``require`` are edge-index bitmasks (``require``
        may be None); the survivors come back as a sorted index list.
        Results are memoised under the packed ``(pool, require, V, strict)``
        key: the searches re-enumerate labels for the same component against
        many Conn/overlap variations.
        """
        edge_masks = self.host.edge_masks
        memo_key = (pool_mask, require, component_vertices, strict)
        cached = self._domination_memo.get(memo_key)
        if cached is not None:
            survivors, skipped = cached
            if self.stats is not None:
                self.stats.bitset_memo_hits += 1
                self.stats.enum_domination_skips += skipped
            return survivors
        pool = indices_of(pool_mask)
        progress_mask = require or 0
        if not strict:
            # Equal-restriction collapse is plain dedup: one survivor per
            # restricted mask — the smallest-index progress member if the
            # class has one (an old edge must never outlive a progress
            # witness), else the smallest index.  This runs per parent-label
            # enumeration, i.e. once per child label on the hottest loop.
            chosen: dict[int, int] = {}
            for e in pool:
                mask = edge_masks[e] & component_vertices
                head = chosen.get(mask)
                if head is None or (
                    progress_mask >> e & 1 and not progress_mask >> head & 1
                ):
                    chosen[mask] = e
            survivors = sorted(chosen.values())
        else:
            # Full containment.  The dominators of e are found by one
            # AND-chain over the vertex → edge incidence table: the pool
            # edges containing every vertex of e ∩ V.  A progress edge only
            # yields to progress edges.  Any candidate with a smaller index
            # dominates (on equal restrictions it wins the tie-break or is
            # the progress witness); a larger one does unless it is e's
            # equal-restriction, equal-status twin, which e outranks.
            # An edge wholly inside V that no other host edge contains has
            # no dominator — a pool edge containing its restriction would
            # contain the edge — and skips the chain.
            incidence = self.host.incidence_masks()
            contained = self._contained
            if contained is None:
                contained = self._contained = self._contained_edges(incidence)
            survivors = []
            for e in pool:
                bits = edge_masks[e]
                restricted = bits & component_vertices
                if restricted == bits and not contained >> e & 1:
                    survivors.append(e)
                    continue
                is_progress = progress_mask >> e & 1
                candidates = pool_mask ^ (1 << e)
                if is_progress:
                    candidates &= progress_mask
                candidates = _edges_containing(incidence, restricted, candidates)
                dominated = candidates & ((1 << e) - 1) != 0
                while candidates and not dominated:
                    low = candidates & -candidates
                    candidates ^= low
                    f = low.bit_length() - 1
                    dominated = (
                        edge_masks[f] & component_vertices != restricted
                        or progress_mask >> f & 1 != is_progress
                    )
                if not dominated:
                    survivors.append(e)
        skipped = len(pool) - len(survivors)
        if skipped and self.stats is not None:
            self.stats.enum_domination_skips += skipped
        self._domination_memo.put(memo_key, (survivors, skipped))
        return survivors

    def _contained_edges(self, incidence: Sequence[int]) -> int:
        """The host edges some *other* host edge contains, as an index mask."""
        everything = self.host.all_edges_mask
        contained = 0
        for e, bits in enumerate(self.host.edge_masks):
            if _edges_containing(incidence, bits, everything ^ (1 << e)):
                contained |= 1 << e
        return contained

    def _branch_and_bound(
        self,
        allowed: int | None,
        require_from: int | None,
        overlap_with: int | None,
        cover: int | None,
        component_vertices: int | None,
        strict_domination: bool,
        first_edges: int | None,
    ) -> Iterator[tuple[int, ...]]:
        host = self.host
        pool_mask = host.all_edges_mask if allowed is None else allowed
        if overlap_with is not None:
            # Edges sharing a vertex with it: the union of its incidence rows.
            incidence = host.incidence_masks()
            touching = 0
            for vertex in bits_of(overlap_with & host.all_vertices_mask):
                touching |= incidence[vertex]
            pool_mask &= touching
        if not pool_mask:
            return
        require = require_from or None
        if component_vertices is not None:
            pool = self._dominated_pool(
                pool_mask, require, component_vertices, strict_domination
            )
        else:
            pool = indices_of(pool_mask)
        edge_masks = host.edge_masks
        bits = [edge_masks[i] for i in pool]
        n = len(pool)
        stats = self.stats
        deadline = self.deadline
        countdown = _DEADLINE_STRIDE

        if require is not None:
            is_req = [(require >> e) & 1 != 0 for e in pool]
            last_req = -1
            for pos in range(n - 1, -1, -1):
                if is_req[pos]:
                    last_req = pos
                    break
            if last_req < 0:
                return
        else:
            is_req = None
            last_req = n  # sentinel: never triggers the progress prune

        suffix: list[int] | None = None
        if cover is not None:
            suffix = [0] * (n + 1)
            acc = 0
            for pos in range(n - 1, -1, -1):
                acc |= bits[pos]
                suffix[pos] = acc
            if cover & ~suffix[0]:
                return
            # What the gap-closing last position draws from: the surviving
            # pool as an edge-index mask, and the vertex → edges table.
            survivors = from_indices(pool)
            incidence = host.incidence_masks()

        first_ok: list[bool] | None = None
        if first_edges is not None:
            first_ok = [first_edges >> e & 1 != 0 for e in pool]

        for size in range(1, self.k + 1):
            if size > n:
                break
            if size == 1:
                # Flat fast path: no recursion state to maintain.
                if cover:
                    # The one edge must contain all of ``cover``.
                    closing = survivors if require is None else survivors & require
                    if first_edges is not None:
                        closing &= first_edges
                    for e in bits_of(_edges_containing(incidence, cover, closing)):
                        yield (e,)
                    continue
                for pos in range(n):
                    if first_ok is not None and not first_ok[pos]:
                        continue
                    if is_req is not None and not is_req[pos]:
                        continue
                    yield (pool[pos],)
                continue

            # Iterative DFS over positions: depth d chooses the (d+1)-th edge.
            # idx[d] is the position chosen at depth d; unions/got are prefix
            # state (union of and progress-status over the first d choices).
            idx = [0] * size
            chosen = [0] * size
            unions = [0] * size
            got = [is_req is None] * size
            d = 0
            pos = 0
            max_start = n - size
            leaf = size - 1
            while True:
                descend = False
                limit_pos = max_start + d
                prefix_union = unions[d]
                prefix_got = got[d]
                gap = cover & ~prefix_union if cover is not None and d == leaf else 0
                if gap:
                    # Gap-closing last position: the last edge must contain
                    # every cover vertex the prefix left open, so the
                    # candidates are one AND-chain over the incidence rows —
                    # the remaining pool edges (a progress edge, if none is
                    # chosen yet) containing the whole gap, in index order.
                    closing = survivors & -(1 << pool[pos])
                    if not prefix_got:
                        closing &= require
                    for e in bits_of(_edges_containing(incidence, gap, closing)):
                        chosen[d] = e
                        yield tuple(chosen)
                    pos = limit_pos + 1
                while pos <= limit_pos:
                    if not prefix_got and pos > last_req:
                        # No progress edge remains in the suffix: every label
                        # in this whole sibling range is filtered.
                        if stats is not None:
                            stats.enum_branches_pruned += 1
                        break
                    if cover is not None and cover & ~(prefix_union | suffix[pos]):
                        # Even taking every remaining pool edge cannot close
                        # the cover gap; suffix unions only shrink for larger
                        # pos, so cut the entire remaining range.
                        if stats is not None:
                            stats.enum_branches_pruned += 1
                        break
                    if d == 0 and first_ok is not None and not first_ok[pos]:
                        pos += 1
                        continue
                    if d == leaf:
                        # No cover gap is open here: any edge closes the label.
                        if prefix_got or is_req[pos]:
                            chosen[d] = pool[pos]
                            yield tuple(chosen)
                        pos += 1
                        continue
                    chosen[d] = pool[pos]
                    idx[d] = pos
                    d += 1
                    unions[d] = prefix_union | bits[pos]
                    got[d] = prefix_got or is_req[pos]
                    pos += 1
                    descend = True
                    break
                if descend:
                    continue
                if d == 0:
                    break
                d -= 1
                pos = idx[d] + 1
                countdown -= 1  # every walked prefix passes here once
                if not countdown and deadline is not None:
                    countdown = _DEADLINE_STRIDE
                    deadline.check("decomposition")

    # ------------------------------------------------------------------ #
    # partitioning (used by the parallel backend)
    # ------------------------------------------------------------------ #
    def labels_for_partition(
        self,
        allowed: int | None,
        first_edges: Iterable[int],
        require_from: int | None = None,
        cover: int | None = None,
        component_vertices: int | None = None,
    ) -> Iterator[tuple[int, ...]]:
        """Yield only the labels whose minimum edge index lies in ``first_edges``.

        Partition-restricted labels are generated directly by constraining
        the *first* chosen edge (labels are emitted as sorted tuples over a
        sorted pool, so the first choice is the minimum); the rest of the
        label space is never materialised.  Subedge domination, when enabled,
        is applied to the full pool *before* the partition restriction, so
        every worker prunes the same edges and the per-worker streams still
        partition the (dominated) label space.  ``cover`` is det-k-decomp's
        Conn-covering requirement, as in :meth:`labels`.
        """
        return self._branch_and_bound(
            allowed, require_from, None, cover, component_vertices, True,
            from_indices(first_edges),
        )
