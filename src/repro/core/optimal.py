"""Exact optimal-width HD computation (substitute for HtdLEO).

HtdLEO encodes hypertree-width computation into SMT and asks the solver for
the optimum width directly — no width parameter, considerable memory use, and
behaviour that differs qualitatively from the parametrised searches of
det-k-decomp and log-k-decomp.  No SMT solver is available offline, so this
module provides an exact optimal solver with the same external behaviour
(see "The paper's baselines, substituted" in ``docs/architecture.md``):

1. A *lower bound* on ``hw`` is computed as the exact generalized hypertree
   width ``ghw`` via dynamic programming over elimination orderings of the
   primal graph (a Held–Karp style subset DP, exponential in the number of
   vertices — mirroring the memory-hungry character of the SMT approach).
   Each ordering bag is covered exactly by a branch-and-bound set cover.
2. Starting at that lower bound, HD existence is checked for increasing ``k``
   with det-k-decomp (:func:`~repro.core.width.width_sweep`, every run
   bounded by what is left of the one deadline); the first success is the
   optimum ``hw`` (since ``ghw ≤ hw`` always holds).

For hypergraphs with too many vertices for the subset DP, the solver falls
back to a cheaper lower bound (the cover number of the largest edge
neighbourhood is replaced by 1) and pays for it with more width iterations,
exactly the "struggles on large instances" behaviour Table 1 reports for
HtdLEO.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

from ..deadline import Deadline
from ..decomp.decomposition import HypertreeDecomposition
from ..exceptions import SolverError, TimeoutExceeded
from ..hypergraph import Hypergraph
from ..hypergraph.properties import is_alpha_acyclic
from .base import DecompositionResult, SearchStatistics
from .detk import DetKDecomposer
from .width import width_sweep

__all__ = ["OptimalHDSolver", "OptimalResult", "exact_ghw", "minimum_edge_cover_size"]

#: Above this vertex count the subset DP for the ghw lower bound is skipped.
DEFAULT_DP_VERTEX_LIMIT = 18

#: Subsets the ghw DP expands between two deadline polls.
_DP_POLL_STRIDE = 16


@dataclass
class OptimalResult:
    """Outcome of an optimal-width computation."""

    hypergraph: Hypergraph
    width: int | None
    decomposition: HypertreeDecomposition | None
    lower_bound: int
    elapsed: float
    timed_out: bool
    statistics: SearchStatistics

    @property
    def solved(self) -> bool:
        """True iff an optimal-width HD was found and proven optimal."""
        return self.width is not None


def minimum_edge_cover_size(hypergraph: Hypergraph, vertices: int, limit: int | None = None) -> int:
    """Exact minimum number of edges needed to cover the vertex bitmask ``vertices``.

    Branch and bound on the first uncovered vertex; ``limit`` (if given) caps
    the search and the returned value is then ``limit + 1`` when no cover of
    size at most ``limit`` exists.
    """
    if vertices == 0:
        return 0
    edge_bits = [hypergraph.edge_bits(i) for i in range(hypergraph.num_edges)]
    cap = limit if limit is not None else hypergraph.num_edges

    best = cap + 1

    def branch(remaining: int, used: int) -> None:
        nonlocal best
        if remaining == 0:
            best = min(best, used)
            return
        if used + 1 >= best:
            return
        lowest = remaining & -remaining
        candidates = [bits for bits in edge_bits if bits & lowest]
        # Try edges covering more of the remainder first.
        candidates.sort(key=lambda bits: (bits & remaining).bit_count(), reverse=True)
        for bits in candidates:
            branch(remaining & ~bits, used + 1)

    branch(vertices, 0)
    return best


def exact_ghw(
    hypergraph: Hypergraph,
    vertex_limit: int = DEFAULT_DP_VERTEX_LIMIT,
    deadline: Deadline | None = None,
) -> int | None:
    """Exact generalized hypertree width via the elimination-ordering subset DP.

    Returns ``None`` when the hypergraph has more vertices than
    ``vertex_limit`` (the DP over 2^n subsets would be too expensive).  The
    DP polls ``deadline`` every ``_DP_POLL_STRIDE`` subsets and raises
    :class:`~repro.exceptions.TimeoutExceeded` once it fires.
    """
    n = hypergraph.num_vertices
    if n == 0:
        return 0
    if n > vertex_limit:
        return None

    # Adjacency of the primal graph as bitmasks.
    adjacency = [0] * n
    for index in range(hypergraph.num_edges):
        bits = hypergraph.edge_bits(index)
        remaining = bits
        while remaining:
            low = remaining & -remaining
            v = low.bit_length() - 1
            remaining ^= low
            adjacency[v] |= bits & ~low

    full = (1 << n) - 1
    subsets = 0

    @lru_cache(maxsize=None)
    def reachable_closure(eliminated: int, vertex: int) -> int:
        """Vertices outside ``eliminated ∪ {vertex}`` reachable from ``vertex``
        through eliminated vertices (the bag of ``vertex`` when eliminated
        after the set ``eliminated``)."""
        seen = 1 << vertex
        frontier = 1 << vertex
        result = 0
        while frontier:
            low = frontier & -frontier
            v = low.bit_length() - 1
            frontier ^= low
            neighbours = adjacency[v] & ~seen
            seen |= neighbours
            result |= neighbours & ~eliminated
            frontier |= neighbours & eliminated
        return result & ~(1 << vertex)

    @lru_cache(maxsize=None)
    def bag_cost(eliminated: int, vertex: int) -> int:
        bag = reachable_closure(eliminated, vertex) | (1 << vertex)
        return minimum_edge_cover_size(hypergraph, bag)

    @lru_cache(maxsize=None)
    def best_width(eliminated: int) -> int:
        """Minimum over orderings of the remaining vertices of the max bag cover."""
        nonlocal subsets
        if eliminated == full:
            return 0
        if deadline is not None:
            subsets += 1
            if not subsets % _DP_POLL_STRIDE:
                deadline.check("optimal solver")
        best = hypergraph.num_edges + 1
        remaining = full & ~eliminated
        while remaining:
            low = remaining & -remaining
            v = low.bit_length() - 1
            remaining ^= low
            cost = max(bag_cost(eliminated, v), best_width(eliminated | (1 << v)))
            if cost < best:
                best = cost
        return best

    try:
        result = best_width(0)
    finally:
        reachable_closure.cache_clear()
        bag_cost.cache_clear()
        best_width.cache_clear()
    return result


class OptimalHDSolver:
    """Compute the exact hypertree width and an optimal HD (HtdLEO substitute).

    Unlike the :class:`~repro.core.base.Decomposer` classes this solver takes
    no width parameter: :meth:`solve` returns the optimum directly, as HtdLEO
    does.
    """

    name = "optimal-hd"

    def __init__(
        self,
        timeout: float | None = None,
        dp_vertex_limit: int = DEFAULT_DP_VERTEX_LIMIT,
        max_width: int = 10,
    ) -> None:
        if max_width < 1:
            raise SolverError("max_width must be >= 1")
        self.timeout = timeout
        self.dp_vertex_limit = dp_vertex_limit
        self.max_width = max_width

    def solve(self, hypergraph: Hypergraph) -> OptimalResult:
        """Return the optimum hypertree width of ``hypergraph`` (up to ``max_width``)."""
        if hypergraph.num_edges == 0:
            raise SolverError("cannot decompose a hypergraph without edges")
        start = time.monotonic()
        deadline = Deadline.arm(self.timeout)
        # A private cache-less engine, as the harness gives the other Table 1
        # methods: the reported time is a search time, and the budget-keyed
        # entries never land in the process-wide cache.
        from ..pipeline.engine import DecompositionEngine  # deferred: avoids an import cycle

        engine = DecompositionEngine(cache=False)

        def decide(width: int) -> DecompositionResult:
            remaining = None if deadline is None else deadline.remaining()
            return DetKDecomposer(timeout=remaining, engine=engine).decompose(hypergraph, width)

        lower_bound = 1
        runs: list[DecompositionResult] = []
        timed_out = False
        try:
            if not is_alpha_acyclic(hypergraph):
                lower_bound = 2
                ghw = exact_ghw(hypergraph, self.dp_vertex_limit, deadline)
                if ghw is not None:
                    lower_bound = max(lower_bound, ghw)
            if deadline is not None:
                deadline.check("optimal solver")
            runs = width_sweep(decide, range(lower_bound, self.max_width + 1))
            timed_out = bool(runs) and runs[-1].timed_out
        except TimeoutExceeded:
            timed_out = True
        stats = SearchStatistics()
        for run in runs:
            stats.merge(run.statistics)
        found = runs[-1] if runs and runs[-1].success else None
        return OptimalResult(
            hypergraph=hypergraph,
            width=found.width_parameter if found else None,
            decomposition=found.decomposition if found else None,
            lower_bound=lower_bound,
            elapsed=time.monotonic() - start,
            timed_out=timed_out,
            statistics=stats,
        )

    def __repr__(self) -> str:
        return f"<OptimalHDSolver timeout={self.timeout} max_width={self.max_width}>"
