"""log-k-decomp, optimised variant (Algorithm 2 of the paper).

This is the paper's main contribution.  The recursive ``Decomp`` function
searches for the λ-labels of a *pair* of adjacent HD nodes (parent ``p`` and
child ``c``) such that ``c`` is a *balanced separator* of the current extended
subhypergraph: no [χ(c)]-component below ``c`` and not the part above ``c``
may contain more than half of the component's (special) edges.  Balancedness
guarantees a recursion depth logarithmic in the number of edges
(Theorem 4.1), which is what makes the search-space partitioning
parallelisable without coordination.

The optimisations of Appendix C are implemented and individually switchable
(for the ablation benchmarks):

* ``negative_base_case`` — fail immediately when only special edges remain,
* child-first search with explicit *root-of-fragment* handling,
* ``parent_overlap_pruning`` — parent labels only use edges intersecting
  ∪λ(c),
* ``require_balanced`` — the balancedness filter itself (disabling it keeps
  the algorithm correct but removes the logarithmic depth guarantee; it exists
  purely for the ablation study).

Excluding the edges of the component below a separator from the λ-labels of
the fragment above it (the ``allowed`` set threaded through the recursion) is
**not** an optional optimisation: an "up" fragment whose λ-label uses an edge
of the component below the stitch point puts vertices of that component into
∪λ(u) without them being in χ(u), which violates HD condition 4 (the special
condition) on the stitched tree.  The restriction is therefore always
applied (it also never loses completeness: fragments extracted from a valid
HD never need the excluded edges, by the very same condition 4).

A ``leaf_delegate`` hook allows the hybrid decomposer to hand sufficiently
small subproblems to det-k-decomp (Appendix D.2).

Every call goes through a :class:`~repro.core.base.SearchMemo`, as in
det-k-decomp; stitching copies only the path it changes, so memoised
fragments are shared, never copied.

Components are :class:`~repro.decomp.extended.BitComp` records and edge pools
edge-index bitmasks from the entry point down.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..decomp.components import ComponentSplitter
from ..decomp.covers import label_union
from ..lru import BoundedLRU
from ..decomp.extended import BitComp, FragmentNode, full_bitcomp
from .base import Decomposer, SearchContext, SearchMemo
from .fragments import base_case, replace_special_leaf, special_leaf

__all__ = ["LogKSearch", "LogKDecomposer"]


#: The delegate receives the packed subproblem in :meth:`LogKSearch.search`'s
#: own argument order: a :class:`BitComp`, the Conn vertex bitmask, the
#: allowed-edge *index* bitmask and the recursion depth.
LeafDelegate = Callable[[BitComp, int, int, int], FragmentNode | None]
DelegatePredicate = Callable[[BitComp], bool]


class LogKSearch:
    """The recursive search of Algorithm 2 over extended subhypergraphs."""

    def __init__(
        self,
        context: SearchContext,
        negative_base_case: bool = True,
        parent_overlap_pruning: bool = True,
        require_balanced: bool = True,
        # Memo off is the reference the log-k memo's tests hold its answers to.
        use_cache: bool = True,
        subedge_domination: bool = True,
        leaf_delegate: LeafDelegate | None = None,
        delegate_predicate: DelegatePredicate | None = None,
        root_partition: Iterable[int] | None = None,
    ) -> None:
        self.context = context
        self.negative_base_case = negative_base_case
        self.parent_overlap_pruning = parent_overlap_pruning
        self.require_balanced = require_balanced
        # Search-kernel switch (same ablation spirit as the flags above):
        # subedge_domination drops pool edges whose component-restricted
        # vertex set is contained in another pool edge's.
        self.subedge_domination = subedge_domination
        self.leaf_delegate = leaf_delegate
        self.delegate_predicate = delegate_predicate
        self.root_partition = frozenset(root_partition) if root_partition is not None else None
        # The same extended subhypergraph is reached through many (λ(p), λ(c))
        # pairs; the memo answers every visit after the first.
        self.memo = SearchMemo(enabled=use_cache)
        # Memoised splitters for the inner comp_down splits of the parent
        # loop: the same oversized component reappears for many λ(p), and its
        # splitter then serves the [χ(c)]-splits of every paired child label.
        self._splitters: BoundedLRU = BoundedLRU(256)

    def _splitter_for(self, comp: BitComp) -> ComponentSplitter:
        key = (comp.edges, comp.specials)
        splitter = self._splitters.get(key)
        if splitter is None:
            splitter = ComponentSplitter(self.context.host, comp, stats=self.context.stats)
            self._splitters.put(key, splitter)
        elif self.context.stats is not None:
            self.context.stats.bitset_memo_hits += 1
        return splitter

    # ------------------------------------------------------------------ #
    # public entry point (and the recursion itself)
    # ------------------------------------------------------------------ #
    def search(
        self, comp: BitComp, conn: int, allowed: int, depth: int = 1
    ) -> FragmentNode | None:
        """Decomp(H', Conn, A): an HD fragment of width <= k, or ``None``.

        ``conn`` is a vertex bitmask, ``allowed`` the edge-index bitmask of
        the edges λ-labels may use.
        """
        context = self.context
        context.stats.record_call(depth)
        context.check_timeout()
        key = (comp.edges, comp.specials, conn, allowed)
        return self.memo.solve(
            context, key, depth, lambda: self._search_uncached(comp, conn, allowed, depth)
        )

    def _search_uncached(
        self, comp: BitComp, conn: int, allowed: int, depth: int
    ) -> FragmentNode | None:
        context = self.context
        host, k = context.host, context.k

        # ----- base cases (lines 5-10) --------------------------------- #
        fragment = base_case(host, k, comp)
        if fragment is not None:
            return fragment
        if not comp.edges and self.negative_base_case:
            return None
        # Without the negative base case the child loop below finds no
        # candidate label (it requires a "new" edge) and fails anyway.

        allowed_pool = allowed

        # ----- hybrid delegation (Appendix D.2) ------------------------ #
        # The delegate receives the allowed-edge pool: its fragment may end
        # up above a stitched separator, where λ-labels using edges of the
        # component below would break the special condition (condition 4) of
        # the combined tree.
        if (
            self.leaf_delegate is not None
            and self.delegate_predicate is not None
            and self.delegate_predicate(comp)
        ):
            context.stats.subproblems_delegated += 1
            return self.leaf_delegate(comp, conn, allowed_pool, depth)
        half = comp.size / 2
        # Pooled splitter: the same comp recurs across search calls under
        # different (conn, allowed) keys and keeps its incidence index and
        # split memo across those visits.
        splitter = self._splitter_for(comp)
        comp_vertices = splitter.comp_vertices

        # ----- ChildLoop (lines 11-43) --------------------------------- #
        child_labels = self._child_labels(comp, allowed_pool, comp_vertices, depth)
        for lam_c in child_labels:
            context.stats.labels_tried += 1
            context.check_timeout()
            lam_c_union = label_union(host, lam_c)

            if self.require_balanced and splitter.has_oversized(lam_c_union, half):
                continue

            if conn & ~lam_c_union == 0:
                # ----- c is the root of the fragment (lines 15-21) ----- #
                comps_c = splitter.split_with_vertices(lam_c_union)
                fragment = self._try_root(
                    comp, lam_c, lam_c_union, comps_c, comp_vertices,
                    allowed_pool, depth,
                )
                if fragment is not None:
                    return fragment
                continue

            # ----- ParentLoop (lines 22-43) ---------------------------- #
            fragment = self._try_parents(
                comp, conn, lam_c, lam_c_union, comp_vertices, allowed_pool, depth,
                splitter,
            )
            if fragment is not None:
                return fragment

        return None

    # ------------------------------------------------------------------ #
    # pieces of the search
    # ------------------------------------------------------------------ #
    def _child_labels(
        self, comp: BitComp, allowed_pool: int, comp_vertices: int, depth: int
    ) -> Iterable[tuple[int, ...]]:
        enumerator = self.context.enumerator
        domination = comp_vertices if self.subedge_domination else None
        if depth == 1 and self.root_partition is not None:
            return enumerator.labels_for_partition(
                allowed_pool,
                self.root_partition,
                require_from=comp.edges,
                component_vertices=domination,
            )
        return enumerator.labels(
            allowed=allowed_pool,
            require_from=comp.edges,
            component_vertices=domination,
        )

    def _try_root(
        self,
        comp: BitComp,
        lam_c: tuple[int, ...],
        lam_c_union: int,
        comps_c: Iterable[tuple[BitComp, int]],
        comp_vertices: int,
        allowed_pool: int,
        depth: int,
    ) -> FragmentNode | None:
        """Lines 15-21: the child label covers Conn, so c roots the fragment."""
        chi_c = lam_c_union & comp_vertices
        children: list[FragmentNode] = []
        for sub, sub_vertices in comps_c:
            child = self.search(sub, sub_vertices & chi_c, allowed_pool, depth + 1)
            if child is None:
                return None
            children.append(child)
        for special in comp.specials:
            if special & ~chi_c == 0:
                children.append(special_leaf(special))
        return FragmentNode(chi=chi_c, lam_edges=lam_c, children=tuple(children))

    def _try_parents(
        self,
        comp: BitComp,
        conn: int,
        lam_c: tuple[int, ...],
        lam_c_union: int,
        comp_vertices: int,
        allowed_pool: int,
        depth: int,
        splitter: ComponentSplitter,
    ) -> FragmentNode | None:
        """Lines 22-43: find a parent label λ(p) compatible with the child c."""
        context = self.context
        host = context.host
        half = comp.size / 2
        overlap = lam_c_union if self.parent_overlap_pruning else None
        # strict_domination=False: the oversized-component existence test a
        # few lines below is not monotone in the parent label's restriction,
        # so only the outcome-preserving equal-restriction collapse applies
        # here (see the covers module docstring).
        for lam_p in context.enumerator.labels(
            allowed=allowed_pool,
            require_from=comp.edges,
            overlap_with=overlap,
            component_vertices=comp_vertices if self.subedge_domination else None,
            strict_domination=False,
        ):
            context.stats.labels_tried += 1
            context.check_timeout()
            lam_p_union = label_union(host, lam_p)

            down = splitter.oversized(lam_p_union, half)
            if down is None:
                continue
            comp_down, down_vertices = down

            chi_c = lam_c_union & down_vertices
            if down_vertices & conn & ~lam_p_union:
                continue  # connectedness check, line 29
            if down_vertices & lam_p_union & ~chi_c:
                continue  # connectedness check, line 31

            sub_components = self._splitter_for(comp_down).split_with_vertices(chi_c)
            children: list[FragmentNode] = []
            failed = False
            for sub, sub_vertices in sub_components:
                child = self.search(sub, sub_vertices & chi_c, allowed_pool, depth + 1)
                if child is None:
                    failed = True
                    break
                children.append(child)
            if failed:
                continue

            comp_up = comp.difference(comp_down).with_special(chi_c)
            allowed_up = allowed_pool & ~comp_down.edges
            up = self.search(comp_up, conn, allowed_up, depth + 1)
            if up is None:
                continue

            for special in comp_down.specials:
                if special & ~chi_c == 0:
                    children.append(special_leaf(special))
            node_c = FragmentNode(chi=chi_c, lam_edges=lam_c, children=tuple(children))
            stitched = replace_special_leaf(up, chi_c, node_c)
            if stitched is None:
                # The fragment above must contain the placeholder for χ(c).
                continue
            return stitched
        return None


class LogKDecomposer(Decomposer):
    """Public decomposer running the optimised log-k-decomp (Algorithm 2)."""

    name = "log-k-decomp"

    def __init__(
        self,
        timeout: float | None = None,
        negative_base_case: bool = True,
        parent_overlap_pruning: bool = True,
        require_balanced: bool = True,
        subedge_domination: bool = True,
        engine=None,
    ) -> None:
        super().__init__(timeout=timeout, engine=engine)
        self.negative_base_case = negative_base_case
        self.parent_overlap_pruning = parent_overlap_pruning
        self.require_balanced = require_balanced
        self.subedge_domination = subedge_domination

    def search(
        self, context: SearchContext, root_partition: Iterable[int] | None = None
    ) -> FragmentNode | None:
        search = LogKSearch(
            context,
            negative_base_case=self.negative_base_case,
            parent_overlap_pruning=self.parent_overlap_pruning,
            require_balanced=self.require_balanced,
            subedge_domination=self.subedge_domination,
            root_partition=root_partition,
        )
        host = context.host
        return search.search(full_bitcomp(host), conn=0, allowed=host.all_edges_mask)
