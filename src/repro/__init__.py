"""repro — fast parallel hypertree decompositions in logarithmic recursion depth.

A Python reproduction of the PODS 2022 paper by Gottlob, Lanzinger, Okulmus
and Pichler.  The package provides:

* :mod:`repro.hypergraph` — hypergraphs, parsing, query abstraction, generators,
* :mod:`repro.decomp` — (generalized) hypertree decompositions, extended
  subhypergraphs, components, λ-label enumeration, validation, join trees,
* :mod:`repro.core` — the log-k-decomp algorithm (basic and optimised), the
  det-k-decomp baseline, the hybrid strategy, parallel execution, a GHD
  solver and an exact optimal-width solver,
* :mod:`repro.pipeline` — the staged decomposition engine every entry point
  routes through: width-preserving simplification with reversible lifting,
  the declarative algorithm registry, and a canonical-hash result cache,
* :mod:`repro.catalog` — the durable decomposition catalog: a SQLite-backed
  L2 cache tier persisting validated certificates with provenance
  (``python -m repro.catalog`` maintains it),
* :mod:`repro.query` — HD-guided conjunctive query evaluation and CSP solving,
* :mod:`repro.service` — the concurrent serving layer: caches shared behind
  one lock each, in-flight request deduplication and a prioritised worker pool
  (``python -m repro.serve --selftest`` smoke-tests it end to end),
* :mod:`repro.faults` — deterministic fault injection (named fault points,
  seeded schedules) and the resilience primitives behind the supervised
  recovery ladder: retry with backoff, the catalog circuit breaker, worker
  respawn and quarantine (``python -m repro.serve --selftest --chaos``
  exercises it),
* :mod:`repro.bench` — the HyperBench-like corpus and the harness regenerating
  the paper's tables and figures.

Quickstart (doctest-verified; see ``docs/api.md`` for the full reference):

    >>> from repro import Hypergraph, decompose, hypertree_width
    >>> h = Hypergraph({"r1": ["x", "y"], "r2": ["y", "z"], "r3": ["z", "x"]})
    >>> width, hd = hypertree_width(h)
    >>> width
    2
    >>> decompose(h, k=2).success            # decision problem for one width
    True
    >>> decompose(h, k=1).success            # a triangle has no width-1 HD
    False

The heavy layers (:mod:`repro.query`, :mod:`repro.service`) are imported
lazily: ``from repro import DecompositionService`` works, but merely
importing :mod:`repro` does not pull the query engine in.
"""

from .exceptions import (
    DecompositionError,
    HypergraphError,
    ParseError,
    QueryError,
    ReproError,
    ServiceError,
    SolverError,
    TimeoutExceeded,
    ValidationError,
)
from .hypergraph import (
    Atom,
    ConjunctiveQuery,
    CSPInstance,
    Hypergraph,
    parse_hypergraph,
    read_hypergraph,
    write_hypergraph,
)
from .decomp import (
    Decomposition,
    DecompositionNode,
    GeneralizedHypertreeDecomposition,
    HypertreeDecomposition,
    JoinTree,
    join_tree_from_decomposition,
    validate_ghd,
    validate_hd,
)
from .pipeline import (
    DecompositionEngine,
    ResultCache,
    SimplificationTrace,
    default_engine,
    lift_decomposition,
    set_default_engine,
    simplify,
)
from .core import (
    BalancedGHDDecomposer,
    Decomposer,
    DecompositionResult,
    DetKDecomposer,
    HybridDecomposer,
    LogKBasicDecomposer,
    LogKDecomposer,
    OptimalHDSolver,
    ParallelLogKDecomposer,
    decompose,
    hypertree_width,
    is_width_at_most,
    make_decomposer,
)

__version__ = "1.0.0"

#: Lazily exported names (PEP 562): resolved on first attribute access so the
#: base import stays light while the serving/query facade remains one hop away.
_LAZY_EXPORTS = {
    "DecompositionService": ("repro.service", "DecompositionService"),
    "ServiceStats": ("repro.service", "ServiceStats"),
    "ServiceTicket": ("repro.service", "ServiceTicket"),
    "QueryEngine": ("repro.query", "QueryEngine"),
    "QueryWorkload": ("repro.query", "QueryWorkload"),
    "DecompositionCatalog": ("repro.catalog", "DecompositionCatalog"),
    "CatalogStats": ("repro.catalog", "CatalogStats"),
    "FaultRule": ("repro.faults", "FaultRule"),
    "FaultInjector": ("repro.faults", "FaultInjector"),
    "RetryPolicy": ("repro.faults", "RetryPolicy"),
    "CircuitBreaker": ("repro.faults", "CircuitBreaker"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "HypergraphError",
    "ParseError",
    "DecompositionError",
    "ValidationError",
    "SolverError",
    "TimeoutExceeded",
    "QueryError",
    "ServiceError",
    # hypergraph substrate
    "Hypergraph",
    "Atom",
    "ConjunctiveQuery",
    "CSPInstance",
    "parse_hypergraph",
    "read_hypergraph",
    "write_hypergraph",
    # decompositions
    "Decomposition",
    "DecompositionNode",
    "HypertreeDecomposition",
    "GeneralizedHypertreeDecomposition",
    "JoinTree",
    "join_tree_from_decomposition",
    "validate_hd",
    "validate_ghd",
    # algorithms
    "Decomposer",
    "DecompositionResult",
    "LogKDecomposer",
    "LogKBasicDecomposer",
    "DetKDecomposer",
    "HybridDecomposer",
    "ParallelLogKDecomposer",
    "BalancedGHDDecomposer",
    "OptimalHDSolver",
    "decompose",
    "hypertree_width",
    "is_width_at_most",
    "make_decomposer",
    # staged pipeline
    "DecompositionEngine",
    "ResultCache",
    "SimplificationTrace",
    "default_engine",
    "set_default_engine",
    "simplify",
    "lift_decomposition",
    # serving + query facade (lazy)
    "DecompositionService",
    "ServiceStats",
    "ServiceTicket",
    "QueryEngine",
    "QueryWorkload",
    # durable catalog (lazy)
    "DecompositionCatalog",
    "CatalogStats",
    # fault injection + resilience (lazy)
    "FaultRule",
    "FaultInjector",
    "RetryPolicy",
    "CircuitBreaker",
]
