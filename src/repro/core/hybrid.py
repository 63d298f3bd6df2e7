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
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..decomp.extended import BitComp, FragmentNode, full_bitcomp
from ..exceptions import SolverError
from ..hypergraph import Hypergraph
from ..hypergraph.bitset import indices_of
from .base import Decomposer, SearchContext
from .detk import DetKSearch
from .logk import LogKSearch

__all__ = [
    "SwitchMetric",
    "EdgeCountMetric",
    "WeightedCountMetric",
    "HybridDecomposer",
    "make_metric",
]


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
        **engine_options,
    ) -> None:
        super().__init__(timeout=timeout, **engine_options)
        self.metric = make_metric(metric) if isinstance(metric, str) else metric
        self.threshold = threshold
        self.negative_base_case = negative_base_case
        self.parent_overlap_pruning = parent_overlap_pruning
        self.subedge_domination = subedge_domination

    def search(
        self, context: SearchContext, root_partition: Iterable[int] | None = None
    ) -> FragmentNode | None:
        # Whichever search runs the depth-1 label loop owns the partition:
        # log-k-decomp's child loop, or det-k-decomp's when the metric puts
        # the whole instance below the threshold and the root is delegated.
        detk = DetKSearch(
            context,
            subedge_domination=self.subedge_domination,
            root_partition=root_partition,
        )

        def should_delegate(comp: BitComp) -> bool:
            return self.metric.value(context.host, comp, context.k) < self.threshold

        search = LogKSearch(
            context,
            negative_base_case=self.negative_base_case,
            parent_overlap_pruning=self.parent_overlap_pruning,
            subedge_domination=self.subedge_domination,
            leaf_delegate=detk.search,
            delegate_predicate=should_delegate,
            root_partition=root_partition,
        )
        comp = full_bitcomp(context.host)
        return search.search(comp, conn=0, allowed=context.host.all_edges_mask)
