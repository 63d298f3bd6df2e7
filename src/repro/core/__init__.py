"""The paper's contribution (log-k-decomp) and the competing algorithms."""

from .base import Decomposer, DecompositionResult, SearchContext, SearchStatistics
from .detk import DetKDecomposer, DetKSearch
from .fragments import fragment_to_decomposition, replace_special_leaf, special_leaf
from .ghd import BalancedGHDDecomposer
from .hybrid import (
    EdgeCountMetric,
    HybridDecomposer,
    SwitchMetric,
    WeightedCountMetric,
    make_metric,
)
from .logk import LogKDecomposer, LogKSearch
from .logk_basic import LogKBasicDecomposer, LogKBasicSearch
from .optimal import OptimalHDSolver, OptimalResult, exact_ghw, minimum_edge_cover_size
from .parallel import ParallelLogKDecomposer
from .width import (
    decompose,
    hypertree_width,
    is_width_at_most,
    make_decomposer,
)

__all__ = [
    "Decomposer",
    "DecompositionResult",
    "SearchContext",
    "SearchStatistics",
    "DetKDecomposer",
    "DetKSearch",
    "fragment_to_decomposition",
    "replace_special_leaf",
    "special_leaf",
    "BalancedGHDDecomposer",
    "EdgeCountMetric",
    "HybridDecomposer",
    "SwitchMetric",
    "WeightedCountMetric",
    "make_metric",
    "LogKDecomposer",
    "LogKSearch",
    "LogKBasicDecomposer",
    "LogKBasicSearch",
    "OptimalHDSolver",
    "OptimalResult",
    "exact_ghw",
    "minimum_edge_cover_size",
    "ParallelLogKDecomposer",
    "decompose",
    "hypertree_width",
    "is_width_at_most",
    "make_decomposer",
]
