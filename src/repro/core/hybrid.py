"""Hybrid log-k-decomp / det-k-decomp (Section 5.2 and Appendix D.2).

The hybrid strategy uses log-k-decomp's balanced separators to split large
problems into small, independent subproblems, and switches to det-k-decomp —
which excels on small instances thanks to its memoisation — once a subproblem
is "simple enough".  Simplicity is measured by one of two metrics from the
paper:

* ``EdgeCount``:       m(H') = |E(H')|
* ``WeightedCount``:   m(H') = |E(H')| * k / avg_{e ∈ E(H')} |e|

log-k-decomp keeps control while ``m(H') >= threshold`` and delegates to
det-k-decomp below the threshold.  The paper's best configuration is
WeightedCount with thresholds around 400 (Table 2), which is the default
here.  Both searches run on :class:`~repro.decomp.extended.BitComp` records
and edge-index bitmasks, so a delegated subproblem changes hands as is.

An instance whose *root* is below the threshold (with the default, every
graph with |E|·k < 800) is not simply handed to det-k-decomp: det-k
finds fast but refutes slowly, log-k's balance filter (Theorem 4.1) the
other way round.  Det-k runs first, within a budget of
``_DETK_LABELS_PER_EDGE`` labels per edge; if it decides inside the budget
that is the answer.  Otherwise log-k-decomp takes the root — the depth-1
child loop, which alone the parallel backend partitions — and det-k, with
its memo from the first phase, every subproblem below the threshold under
it.  Each phase is a method of its own (``detk_phase``, ``logk_phase``).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..decomp.extended import BitComp, FragmentNode, full_bitcomp
from ..exceptions import SolverError
from ..hypergraph import Hypergraph
from ..hypergraph.bitset import indices_of
from .base import Decomposer, SearchContext
from .detk import DetKSearch, _LabelBudgetSpent
from .logk import LogKSearch

__all__ = [
    "SwitchMetric",
    "EdgeCountMetric",
    "WeightedCountMetric",
    "HybridDecomposer",
    "make_metric",
]

#: Phase 1's label budget per host edge (see :meth:`HybridDecomposer.search`).
_DETK_LABELS_PER_EDGE = 2


@dataclass(frozen=True)
class SwitchMetric:
    """Base class of hybridisation metrics; subclasses implement ``value``."""

    name: str = "abstract"

    def value(self, host: Hypergraph, comp: BitComp, k: int) -> float:
        """Complexity estimate of the subproblem ``comp``."""
        raise NotImplementedError


@dataclass(frozen=True)
class EdgeCountMetric(SwitchMetric):
    """The ``EdgeCount`` metric: the number of edges of the subproblem."""

    name: str = "EdgeCount"

    def value(self, host: Hypergraph, comp: BitComp, k: int) -> float:
        return float(comp.edges.bit_count())


@dataclass(frozen=True)
class WeightedCountMetric(SwitchMetric):
    """The ``WeightedCount`` metric: |E| * k / (average edge cardinality).

    Higher width means more structure to search per edge; larger edges make
    covers easier to find, so the count is inversely weighted by the average
    edge size (Appendix D.2).
    """

    name: str = "WeightedCount"

    def value(self, host: Hypergraph, comp: BitComp, k: int) -> float:
        if not comp.edges:
            return 0.0
        indices = indices_of(comp.edges)
        total_size = sum(host.edge_bits(i).bit_count() for i in indices)
        count = len(indices)
        average = total_size / count
        return count * k / average


def make_metric(name: str) -> SwitchMetric:
    """Metric factory accepting the names used in the paper's Table 2."""
    normalized = name.strip().lower()
    if normalized in {"edgecount", "edge", "edges"}:
        return EdgeCountMetric()
    if normalized in {"weightedcount", "weighted"}:
        return WeightedCountMetric()
    raise SolverError(f"unknown hybridisation metric {name!r}")


class HybridDecomposer(Decomposer):
    """log-k-decomp that hands small subproblems to det-k-decomp.

    A root below the threshold is det-k's first, within a label budget, and
    log-k's if the budget is spent (see the module docstring).

    Parameters
    ----------
    metric:
        A :class:`SwitchMetric` instance or its name (``"WeightedCount"`` /
        ``"EdgeCount"``).
    threshold:
        Subproblems whose metric value is strictly below this threshold are
        delegated to det-k-decomp.
    """

    name = "log-k-decomp-hybrid"

    def __init__(
        self,
        timeout: float | None = None,
        metric: SwitchMetric | str = "WeightedCount",
        threshold: float = 400.0,
        negative_base_case: bool = True,
        parent_overlap_pruning: bool = True,
        subedge_domination: bool = True,
        engine=None,
    ) -> None:
        super().__init__(timeout=timeout, engine=engine)
        self.metric = make_metric(metric) if isinstance(metric, str) else metric
        self.threshold = threshold
        self.negative_base_case = negative_base_case
        self.parent_overlap_pruning = parent_overlap_pruning
        self.subedge_domination = subedge_domination

    def search(
        self, context: SearchContext, root_partition: Iterable[int] | None = None
    ) -> FragmentNode | None:
        """Phase 1, then phase 2 (on ``root_partition``) if it did not decide."""
        detk, decided, fragment = self.detk_phase(context)
        if decided:
            return fragment
        return self.logk_phase(detk, context, root_partition)

    def detk_phase(self, context: SearchContext) -> tuple[DetKSearch, bool, FragmentNode | None]:
        """Phase 1, det-k from the root within a label budget: ``(search,
        decided, fragment)``.  A root at or above the threshold tries no label."""
        host, root = context.host, full_bitcomp(context.host)
        detk = DetKSearch(context, subedge_domination=self.subedge_domination)
        if self.metric.value(host, root, context.k) >= self.threshold:
            return detk, False, None
        context.stats.subproblems_delegated += 1
        detk.label_limit = context.stats.labels_tried + _DETK_LABELS_PER_EDGE * host.num_edges
        try:
            return detk, True, detk.search(root, conn=0, allowed=host.all_edges_mask)
        except _LabelBudgetSpent:
            return detk, False, None

    def logk_phase(
        self, detk: DetKSearch, context: SearchContext, root_partition: Iterable[int] | None = None
    ) -> FragmentNode | None:
        """Phase 2: log-k's root loop (``root_partition``'s share of it) makes the
        first balanced split; ``detk``, phase 1's search rebound to ``context``
        (a worker's own), takes every subproblem below the threshold but the root."""
        host, root = context.host, full_bitcomp(context.host)
        detk.context = context
        detk.label_limit = None

        def delegate(comp: BitComp) -> bool:
            return comp is not root and self.metric.value(host, comp, context.k) < self.threshold

        search = LogKSearch(
            context,
            negative_base_case=self.negative_base_case,
            parent_overlap_pruning=self.parent_overlap_pruning,
            subedge_domination=self.subedge_domination,
            leaf_delegate=detk.search,
            delegate_predicate=delegate,
            root_partition=root_partition,
        )
        return search.search(root, conn=0, allowed=host.all_edges_mask)
