"""log-k-decomp, basic variant (Algorithm 1 of the paper).

Algorithm 1 is the form in which the paper proves correctness (Appendix A)
and the logarithmic recursion-depth bound (Theorem 4.1).  Its main program
guesses the λ-label of the *root* of the HD and calls the recursive
``Decomp`` function on every [λ(r)]-component; ``Decomp`` itself guesses the
labels of a parent/child node pair, with the child required to be a balanced
separator of the current extended subhypergraph.

The optimised variant in :mod:`repro.core.logk` supersedes this one in
practice; the basic variant is kept because (a) it is the algorithm the
correctness proofs refer to, (b) differential tests between the two variants
(and det-k-decomp) are a strong guard against implementation bugs, and (c)
the ablation study uses it as the "no optimisations" reference point.

One restriction is shared with the optimised variant because it is
correctness-relevant rather than an optimisation: the λ-labels of the
fragment *above* a separator must not use edges of the component below it
(the ``excluded`` edge-index bitmask threaded through ``decomp``).  Such a
label would put vertices of the component below into ∪λ(u) without them
being in χ(u), violating HD condition 4 on the stitched tree; excluding the
edges never loses completeness because fragments extracted from a valid HD
satisfy condition 4 and therefore never need them.
"""

from __future__ import annotations

from ..decomp.components import ComponentSplitter
from ..decomp.covers import label_union
from ..decomp.extended import BitComp, FragmentNode, full_bitcomp
from .base import Decomposer, SearchContext
from .fragments import base_case, replace_special_leaf, special_leaf

__all__ = ["LogKBasicSearch", "LogKBasicDecomposer"]


class LogKBasicSearch:
    """The main program and recursive ``Decomp`` function of Algorithm 1."""

    def __init__(self, context: SearchContext) -> None:
        self.context = context

    # ------------------------------------------------------------------ #
    # main program (lines 1-10)
    # ------------------------------------------------------------------ #
    def run(self) -> FragmentNode | None:
        """Search for an HD of the whole hypergraph; return its fragment tree."""
        context = self.context
        host = context.host
        whole = full_bitcomp(host)
        splitter = ComponentSplitter(host, whole, stats=context.stats)
        for lam_r in context.enumerator.labels():
            context.stats.labels_tried += 1
            context.check_timeout()
            lam_r_union = label_union(host, lam_r)
            comps_r = splitter.split_bits(lam_r_union)
            children: list[FragmentNode] = []
            rejected = False
            for component in comps_r:
                conn = component.vertices(host) & lam_r_union
                fragment = self.decomp(component, conn, depth=1)
                if fragment is None:
                    rejected = True
                    break
                children.append(fragment)
            if rejected:
                continue
            # χ(r) = ∪λ(r) by the special condition at the root.
            return FragmentNode(chi=lam_r_union, lam_edges=lam_r, children=tuple(children))
        return None

    # ------------------------------------------------------------------ #
    # function Decomp (lines 11-40)
    # ------------------------------------------------------------------ #
    def decomp(
        self, comp: BitComp, conn: int, depth: int, excluded: int = 0
    ) -> FragmentNode | None:
        context = self.context
        context.stats.record_call(depth)
        context.check_timeout()
        host, k = context.host, context.k

        # Base cases (lines 12-15).
        fragment = base_case(host, k, comp)
        if fragment is not None:
            return fragment

        half = comp.size / 2
        splitter = ComponentSplitter(host, comp, stats=context.stats)
        # Edges below enclosing stitch points must stay out of every λ-label
        # of this fragment (condition 4 on the stitched tree, see module docs).
        pool = host.all_edges_mask & ~excluded

        # ParentLoop (lines 16-39).
        for lam_p in context.enumerator.labels(allowed=pool):
            context.stats.labels_tried += 1
            context.check_timeout()
            lam_p_union = label_union(host, lam_p)
            comps_p = splitter.split_bits(lam_p_union)
            comp_down = next((c for c in comps_p if c.size > half), None)
            if comp_down is None:
                continue
            down_vertices = comp_down.vertices(host)
            if down_vertices & conn & ~lam_p_union:
                continue  # connectedness check, line 22
            splitter_down = ComponentSplitter(host, comp_down, stats=context.stats)

            # ChildLoop (lines 24-39).
            for lam_c in context.enumerator.labels(allowed=pool):
                context.stats.labels_tried += 1
                context.check_timeout()
                lam_c_union = label_union(host, lam_c)
                chi_c = lam_c_union & down_vertices
                if down_vertices & lam_p_union & ~chi_c:
                    continue  # connectedness check, line 26
                if splitter_down.largest_size(chi_c) > half:
                    continue  # balancedness check, line 29
                sub_components = splitter_down.split_bits(chi_c)

                children: list[FragmentNode] = []
                failed = False
                for sub in sub_components:
                    sub_conn = sub.vertices(host) & chi_c
                    child = self.decomp(sub, sub_conn, depth + 1, excluded)
                    if child is None:
                        failed = True
                        break
                    children.append(child)
                if failed:
                    continue

                comp_up = comp.difference(comp_down).with_special(chi_c)
                up = self.decomp(comp_up, conn, depth + 1, excluded | comp_down.edges)
                if up is None:
                    continue

                for special in comp_down.specials:
                    if special & ~chi_c == 0:
                        children.append(special_leaf(special))
                node_c = FragmentNode(chi=chi_c, lam_edges=lam_c, children=tuple(children))
                stitched = replace_special_leaf(up, chi_c, node_c)
                if stitched is None:
                    continue
                return stitched
        return None


class LogKBasicDecomposer(Decomposer):
    """Public decomposer running the basic log-k-decomp (Algorithm 1)."""

    name = "log-k-decomp-basic"

    def search(self, context: SearchContext) -> FragmentNode | None:
        return LogKBasicSearch(context).run()
