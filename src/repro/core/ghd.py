"""Generalized hypertree decompositions via balanced separators (BalancedGo-style).

The paper contrasts log-k-decomp with *BalancedGo*, a parallel algorithm for
the more general GHD problem.  GHDs drop the special condition, which makes
the decomposition tree effectively unrooted and allows simple reassembly of
sub-decompositions — but deciding ``ghw ≤ k`` is NP-hard already for k = 2,
so GHD search pays an extra exponential factor in practice.

This module provides a faithful-in-spirit substitute for BalancedGo (see
"The paper's baselines, substituted" in ``docs/architecture.md``): a recursive search that

* picks a ≤ k-edge separator whose components are all *balanced* (at most
  half the size of the current subproblem),
* recurses on each component independently (no rooted interface constraints
  beyond connectedness bookkeeping), and
* reassembles the sub-decompositions around the separator node.

Like every algorithm it implements only :meth:`~repro.core.base.Decomposer.search`:
the fragment tree it returns (χ the bag mask, λ the cover) is wrapped by the
shared :meth:`~repro.core.base.Decomposer.decompose_raw` in a
:class:`~repro.decomp.decomposition.GeneralizedHypertreeDecomposition`
(:attr:`BalancedGHDDecomposer.kind`), which claims no special condition.

Bags are of the form ∪λ restricted to the current subproblem plus the
connecting vertices, which is sound (the produced decomposition always
satisfies the GHD conditions and is checked by the validators) and matches
the bag-shape BalancedGo explores before its subedge refinement.  Exact
``ghw`` optimality is therefore not guaranteed in general — the returned
width is an upper bound on ``ghw`` that in all benchmark families used here
coincides with ``hw``, mirroring the paper's observation that GHDs do not
achieve lower width than HDs on HyperBench.
"""

from __future__ import annotations

from ..decomp.components import ComponentSplitter
from ..decomp.covers import label_union
from ..decomp.decomposition import GeneralizedHypertreeDecomposition
from ..decomp.extended import BitComp, FragmentNode, full_bitcomp
from ..hypergraph.bitset import indices_of
from .base import Decomposer, SearchContext

__all__ = ["BalancedGHDDecomposer"]


class BalancedGHDDecomposer(Decomposer):
    """Balanced-separator GHD search (substitute for BalancedGo)."""

    name = "balanced-ghd"
    kind = GeneralizedHypertreeDecomposition

    def __init__(
        self,
        timeout: float | None = None,
        require_balanced: bool = True,
        engine=None,
    ) -> None:
        super().__init__(timeout=timeout, engine=engine)
        self.require_balanced = require_balanced

    def search(self, context: SearchContext) -> FragmentNode | None:
        return self._decomp(context, full_bitcomp(context.host), conn=0, depth=1)

    # ------------------------------------------------------------------ #
    # recursive search
    # ------------------------------------------------------------------ #
    def _decomp(
        self, context: SearchContext, comp: BitComp, conn: int, depth: int
    ) -> FragmentNode | None:
        context.stats.record_call(depth)
        context.check_timeout()
        host, k = context.host, context.k

        if comp.edges.bit_count() <= k:
            lam = tuple(indices_of(comp.edges))
            bag = host.edges_to_mask(lam) | conn
            cover = self._cover_for(context, bag, lam)
            if cover is None:
                # conn cannot be covered together with the remaining edges
                # within width k; fall through to the separator search.
                pass
            else:
                return FragmentNode(chi=bag, lam_edges=cover)

        comp_vertices = comp.vertices(host)
        half = comp.size / 2
        # Balancedness is enforced where BalancedGo enforces it: when splitting
        # a subproblem that has no outside interface yet (conn == 0).  Once an
        # interface exists, the separator must cover it, which is generally
        # incompatible with balancedness without special edges; those
        # subproblems are solved top-down instead (still producing valid GHDs).
        balanced_here = self.require_balanced and conn == 0
        splitter = ComponentSplitter(host, comp)
        for lam in context.enumerator.labels(cover=conn):
            context.stats.labels_tried += 1
            context.check_timeout()
            lam_union = label_union(host, lam)
            if not lam_union & comp_vertices:
                continue
            parts = splitter.split_bits(lam_union)
            if balanced_here and any(part.size > half for part in parts):
                continue
            if not balanced_here and any(part.size >= comp.size for part in parts):
                continue  # no progress; avoid infinite recursion
            bag = (lam_union & (comp_vertices | conn)) | conn
            if bag & ~lam_union:
                continue  # conn must be covered by the separator edges
            children = []
            failed = False
            for part in parts:
                part_conn = part.vertices(host) & lam_union
                child = self._decomp(context, part, part_conn, depth + 1)
                if child is None:
                    failed = True
                    break
                children.append(child)
            if failed:
                continue
            return FragmentNode(chi=bag, lam_edges=lam, children=tuple(children))
        return None

    def _cover_for(
        self, context: SearchContext, bag: int, preferred: tuple[int, ...]
    ) -> tuple[int, ...] | None:
        """Find ≤ k edges covering ``bag``, preferring the component's own edges."""
        host, k = context.host, context.k
        preferred_union = host.edges_to_mask(preferred)
        if bag & ~preferred_union == 0 and len(preferred) <= k:
            return preferred if preferred else None
        remaining = bag & ~preferred_union
        cover = list(preferred)
        while remaining and len(cover) < k:
            best, best_gain = None, 0
            for index in range(host.num_edges):
                gain = (host.edge_bits(index) & remaining).bit_count()
                if gain > best_gain:
                    best, best_gain = index, gain
            if best is None:
                return None
            cover.append(best)
            remaining &= ~host.edge_bits(best)
        if remaining or not cover or len(cover) > k:
            return None
        return tuple(cover)
