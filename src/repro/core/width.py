"""High-level width API: the functions most users call first.

* :func:`decompose` — find an HD of width at most ``k`` with a chosen algorithm,
* :func:`hypertree_width` — compute the exact hypertree width by iterative
  deepening over ``k`` (with a fast acyclicity shortcut for width 1);
  :func:`smallest_width` does the same but raises on a timeout,
* :func:`is_width_at_most` — the decision problem for a single ``k``,
* :func:`make_decomposer` — thin wrapper over the declarative
  :mod:`repro.pipeline.registry` used by the benchmark harness and the CLI.
"""

from __future__ import annotations

from ..decomp.decomposition import HypertreeDecomposition
from ..exceptions import SolverError, TimeoutExceeded
from ..hypergraph import Hypergraph
from ..hypergraph.properties import is_alpha_acyclic
from ..pipeline.registry import registry as _registry
from .base import Decomposer, DecompositionResult

__all__ = [
    "make_decomposer",
    "decompose",
    "is_width_at_most",
    "hypertree_width",
    "smallest_width",
]


def make_decomposer(algorithm: str = "hybrid", **options) -> Decomposer:
    """Instantiate a decomposer by registry name; extra options go to its constructor."""
    return _registry.build(algorithm, **options)


def decompose(
    hypergraph: Hypergraph, k: int, algorithm: str = "hybrid", **options
) -> DecompositionResult:
    """Search for an HD of ``hypergraph`` of width at most ``k``."""
    return make_decomposer(algorithm, **options).decompose(hypergraph, k)


def is_width_at_most(
    hypergraph: Hypergraph, k: int, algorithm: str = "hybrid", **options
) -> bool | None:
    """Decide ``hw(H) <= k``; returns ``None`` if the time budget ran out."""
    result = decompose(hypergraph, k, algorithm=algorithm, **options)
    if result.timed_out:
        return None
    return result.success


def smallest_width(
    hypergraph: Hypergraph,
    algorithm: str = "hybrid",
    max_width: int = 10,
    timeout: float | None = None,
    **options,
) -> tuple[int, HypertreeDecomposition] | tuple[None, None]:
    """Exact hypertree width by iterative deepening; a timeout raises.

    Returns ``(width, decomposition)`` for the smallest width at which an HD
    exists, or ``(None, None)`` if no HD of width at most ``max_width``
    exists.  Raises :class:`~repro.exceptions.TimeoutExceeded` when a run
    (each ``k`` gets ``timeout`` seconds) ran out of time before the width
    was decided.  Acyclic hypergraphs short-circuit to width 1 via the GYO
    reduction, matching how practical tools treat the trivial case.
    """
    if hypergraph.num_edges == 0:
        raise SolverError("cannot decompose a hypergraph without edges")
    widths = [1] if is_alpha_acyclic(hypergraph) else range(2, max_width + 1)
    for k in widths:
        result = decompose(hypergraph, k, algorithm=algorithm, timeout=timeout, **options)
        if result.timed_out:
            raise TimeoutExceeded(f"width search time budget exhausted at k = {k}")
        if result.success and result.decomposition is not None:
            return k, result.decomposition
    return None, None


def hypertree_width(
    hypergraph: Hypergraph,
    algorithm: str = "hybrid",
    max_width: int = 10,
    timeout: float | None = None,
    **options,
) -> tuple[int, HypertreeDecomposition] | tuple[None, None]:
    """Exact hypertree width by iterative deepening.

    Returns ``(width, decomposition)`` for the smallest width at which an HD
    exists, or ``(None, None)`` if none is found up to ``max_width`` — both
    when no such HD exists and when a run timed out.  :func:`smallest_width`
    tells the two apart: it raises
    :class:`~repro.exceptions.TimeoutExceeded` on a timeout.
    """
    try:
        return smallest_width(hypergraph, algorithm, max_width, timeout, **options)
    except TimeoutExceeded:
        return None, None
