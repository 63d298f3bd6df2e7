"""High-level width API: the functions most users call first.

* :func:`decompose` — find an HD of width at most ``k`` with a chosen algorithm,
* :func:`hypertree_width` — compute the exact hypertree width by iterative
  deepening over ``k`` (with a fast acyclicity shortcut for width 1);
  :func:`smallest_width` does the same but raises on a timeout,
* :func:`is_width_at_most` — the decision problem for a single ``k``,
* :func:`width_sweep` — the one iterative-deepening loop: decide ``hw <= k``
  for ascending ``k`` and stop at the first HD or the first timeout.  The
  width API, the query planner, the optimal solver and the paper harness are
  its callers; each keeps only its own budget rule inside ``decide``,
* :func:`make_decomposer` — thin wrapper over the declarative
  :mod:`repro.pipeline.registry`; :func:`decompose` and
  :func:`smallest_width` build their decomposer through it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

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
    "width_sweep",
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


def width_sweep(
    decide: Callable[[int], DecompositionResult], widths: Iterable[int]
) -> list[DecompositionResult]:
    """Run ``decide(k)`` for each ``k`` of ``widths`` in order; return the runs made.

    The sweep stops after the first run that found an HD or timed out, so
    the last run is the answer: a success at the smallest width not refuted,
    a timeout, or (every run refuted) no HD up to the last width.
    """
    runs: list[DecompositionResult] = []
    for k in widths:
        runs.append(decide(k))
        if runs[-1].success or runs[-1].timed_out:
            break
    return runs


def smallest_width(
    hypergraph: Hypergraph,
    algorithm: str | Decomposer = "hybrid",
    max_width: int = 10,
    timeout: float | None = None,
    **options,
) -> tuple[int, HypertreeDecomposition] | tuple[None, None]:
    """Exact hypertree width by iterative deepening; a timeout raises.

    Returns ``(width, decomposition)`` for the smallest width at which an HD
    exists, or ``(None, None)`` if no HD of width at most ``max_width``
    exists; ``max_width < 1`` raises :class:`~repro.exceptions.SolverError`.
    Raises :class:`~repro.exceptions.TimeoutExceeded` when a run
    (each ``k`` gets ``timeout`` seconds) ran out of time before the width
    was decided.  Acyclic hypergraphs short-circuit to width 1 via the GYO
    reduction, matching how practical tools treat the trivial case.
    ``algorithm`` is a registry name, built with ``timeout`` and ``options``,
    or a built :class:`~repro.core.base.Decomposer`, run as it is.
    """
    if hypergraph.num_edges == 0:
        raise SolverError("cannot decompose a hypergraph without edges")
    if max_width < 1:
        raise SolverError("max_width must be >= 1")
    if not isinstance(algorithm, Decomposer):
        decomposer = make_decomposer(algorithm, timeout=timeout, **options)
    elif timeout is None and not options:
        decomposer = algorithm
    else:
        raise SolverError("a built decomposer takes no timeout or options")
    widths = [1] if is_alpha_acyclic(hypergraph) else range(2, max_width + 1)
    runs = width_sweep(lambda k: decomposer.decompose(hypergraph, k), widths)
    last = runs[-1] if runs else None
    if last is not None and last.timed_out:
        raise TimeoutExceeded(
            f"width search time budget exhausted at k = {last.width_parameter}"
        )
    if last is not None and last.success:
        return last.width_parameter, last.decomposition
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
