"""det-k-decomp: the sequential, cache-based baseline (Gottlob & Samer 2008).

det-k-decomp constructs a hypertree decomposition strictly top-down: for the
current component it guesses a λ-label of at most ``k`` edges that covers the
interface to the parent bag, derives the (minimal, normal-form) bag χ, splits
the remainder into [χ]-components and recurses.  Failed and successful
subproblems are memoised (:class:`~repro.core.base.SearchMemo`), which makes
the algorithm fast on small instances but — as the paper argues — hard to
parallelise, because the cache would have to be shared across threads.

The implementation works on extended subhypergraphs (edge sets plus special
edges, as :class:`~repro.decomp.extended.BitComp` records), which is exactly
the extension the paper's hybrid strategy requires: log-k-decomp hands its
small subproblems, including their special edges, to this engine in the
representation both run on (Section 5.2 and Appendix D.2).
"""

from __future__ import annotations

from ..decomp.components import ComponentSplitter
from ..decomp.extended import BitComp, FragmentNode, full_bitcomp
from .base import Decomposer, SearchContext, SearchMemo
from .fragments import base_case, special_leaf

__all__ = ["DetKSearch", "DetKDecomposer"]


class _LabelBudgetSpent(Exception):
    """A :class:`DetKSearch` tried more labels than its ``label_limit``."""


class DetKSearch:
    """The recursive det-k-decomp search over extended subhypergraphs.

    The search is stateful only through its :class:`SearchMemo` and the
    shared :class:`~repro.core.base.SearchContext`; it can therefore also be
    used as the "leaf engine" of the hybrid decomposer.
    """

    def __init__(
        self,
        context: SearchContext,
        use_cache: bool = True,
        subedge_domination: bool = True,
    ) -> None:
        self.context = context
        self.subedge_domination = subedge_domination
        # The hybrid's label budget: once ``stats.labels_tried`` passes it the
        # search unwinds with _LabelBudgetSpent, which the memo never stores.
        self.label_limit: int | None = None
        self.memo = SearchMemo(enabled=use_cache)

    # ------------------------------------------------------------------ #
    # public entry point (and the recursion itself)
    # ------------------------------------------------------------------ #
    def search(
        self,
        comp: BitComp,
        conn: int,
        allowed: int | None = None,
        depth: int = 1,
        vertices: int | None = None,
    ) -> FragmentNode | None:
        """Return an HD fragment of width <= k for ⟨comp, conn⟩, or ``None``.

        ``allowed`` restricts the λ-label pool to an edge-index bitmask
        (``None`` = all host edges).  When the search runs as the leaf engine
        of the hybrid decomposer it *must* receive log-k-decomp's allowed set
        of the current subproblem: the fragment produced here can end up
        above a stitched separator node, and a λ-label using an edge of the
        component below the separator would put vertices of that component
        into ∪λ(u) without them being in χ(u) — breaking HD condition 4 on
        the stitched tree even though the fragment is locally consistent.
        ``vertices`` is V(comp) when the caller has it at hand (the split
        that produced ``comp`` does).
        """
        context = self.context
        context.stats.record_call(depth)
        context.check_timeout()

        fragment = base_case(context.host, context.k, comp)
        if fragment is not None or not comp.edges:
            # Negative base case: only "old" edges could separate the
            # remaining special edges, which normal-form HDs never do (no
            # progress would be made).
            return fragment

        key = (comp.edges, comp.specials, conn, allowed)
        return self.memo.solve(
            context, key, depth, lambda: self._expand(comp, conn, allowed, depth, vertices)
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _expand(
        self,
        comp: BitComp,
        conn: int,
        allowed: int | None,
        depth: int,
        vertices: int | None = None,
    ) -> FragmentNode | None:
        context = self.context
        host = context.host
        splitter = ComponentSplitter(host, comp, stats=context.stats, vertices=vertices)
        comp_vertices = splitter.comp_vertices
        constraints = dict(
            require_from=comp.edges,
            cover=conn,
            component_vertices=comp_vertices if self.subedge_domination else None,
        )
        for lam in context.enumerator.labels(allowed=allowed, **constraints):
            context.stats.labels_tried += 1
            if self.label_limit is not None and context.stats.labels_tried > self.label_limit:
                raise _LabelBudgetSpent
            context.check_timeout()
            lam_union = host.edges_to_mask(lam)
            chi = lam_union & comp_vertices
            if conn & ~chi:
                # conn ⊆ ∪λ is guaranteed by the enumerator; conn ⊆ V(comp)
                # by Claim A, so this only triggers for inconsistent input.
                continue
            children: list[FragmentNode] = []
            failed = False
            for sub, sub_vertices in splitter.split_with_vertices(chi):
                child = self.search(sub, sub_vertices & chi, allowed, depth + 1, sub_vertices)
                if child is None:
                    failed = True
                    break
                children.append(child)
            if failed:
                continue
            for special in comp.specials:
                if special & ~chi == 0:
                    children.append(special_leaf(special))
            return FragmentNode(chi=chi, lam_edges=lam, children=tuple(children))
        return None


class DetKDecomposer(Decomposer):
    """Public det-k-decomp decomposer (the ``NewDetKDecomp`` baseline)."""

    name = "det-k-decomp"

    def __init__(
        self,
        timeout: float | None = None,
        use_cache: bool = True,
        subedge_domination: bool = True,
        engine=None,
    ) -> None:
        super().__init__(timeout=timeout, engine=engine)
        self.use_cache = use_cache
        self.subedge_domination = subedge_domination

    def search(self, context: SearchContext) -> FragmentNode | None:
        search = DetKSearch(
            context, use_cache=self.use_cache, subedge_domination=self.subedge_domination
        )
        return search.search(full_bitcomp(context.host), conn=0)
