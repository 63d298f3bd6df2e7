"""Common infrastructure shared by all decomposition algorithms.

Every algorithm in :mod:`repro.core` is exposed as a :class:`Decomposer` whose
:meth:`Decomposer.decompose` method takes a hypergraph and a width parameter
``k`` and returns a :class:`DecompositionResult`.  The result records

* whether an HD of width at most ``k`` was found,
* the concrete decomposition (when successful),
* wall-clock time and whether the time budget was exhausted,
* search statistics (recursive calls, maximum recursion depth, number of
  λ-labels tried, cache hits) used by the recursion-depth experiments.

The :class:`SearchContext` bundles the per-run state (host hypergraph, width,
deadline, statistics, cover enumerator) that the recursive search classes of
the individual algorithms share; :class:`SearchMemo` is det-k's and log-k's memo.
"""

from __future__ import annotations

import time
from abc import ABC
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from ..counters import Counters
from ..deadline import Deadline
from ..decomp.covers import CoverEnumerator
from ..decomp.decomposition import Decomposition, HypertreeDecomposition
from ..decomp.extended import FragmentNode
from ..exceptions import SolverError, TimeoutExceeded
from ..hypergraph import Hypergraph
from .fragments import fragment_to_decomposition
from .refuted import RefutedTable

__all__ = [
    "SearchStatistics",
    "DecompositionResult",
    "SearchContext",
    "SearchMemo",
    "Decomposer",
    "PRIMITIVE_OPTION_TYPES",
]

#: Option-value types whose equality is a safe configuration identity.
#: :meth:`Decomposer.cache_key` collapses anything else to its type name, and
#: the serving layer (:mod:`repro.service`) refuses to share requests carrying
#: such values; both decisions read this one tuple.
PRIMITIVE_OPTION_TYPES = (str, int, float, bool, tuple, frozenset, type(None))

#: Search calls between two deadline polls in :meth:`SearchContext.check_timeout`.
_TIMEOUT_STRIDE = 64


@dataclass
class SearchStatistics(Counters):
    """Counters collected during a decomposition search.

    ``stage_seconds`` is populated by the staged
    :class:`~repro.pipeline.engine.DecompositionEngine` with per-stage
    wall-clock times (``simplify``, ``cache``, ``decompose``, ``lift``);
    it stays empty for raw :meth:`Decomposer.decompose_raw` runs.
    """

    recursive_calls: int = 0
    max_recursion_depth: int = field(default=0, metadata={"merge": max})
    labels_tried: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    subproblems_delegated: int = 0
    #: Search-kernel counters: subtrees cut by the branch-and-bound label
    #: enumerator, pool edges dropped by subedge domination, and
    #: component-splitter memo traffic.  The ablation benches report these.
    enum_branches_pruned: int = 0
    enum_domination_skips: int = 0
    splitter_memo_hits: int = 0
    splitter_memo_misses: int = 0
    #: Bitset-kernel counters: lazy vertex→edge incidence mask-table builds
    #: triggered by a splitter (the edge→edge adjacency table is derived from
    #: it in the same constructor and not counted separately), and hits on
    #: the packed-key memos (dominated candidate pools, per-component
    #: splitter reuse).
    mask_table_builds: int = 0
    bitset_memo_hits: int = 0
    #: Resilience counter: replacement processes spawned by the parallel
    #: backend's supervisor after a worker died mid-search.
    worker_respawns: int = 0
    #: Parallel-search counter: :class:`SearchMemo` misses answered by the
    #: workers' shared :class:`~repro.core.refuted.RefutedTable` (counted in
    #: ``cache_hits`` too; ``cache_misses`` stays "expansions performed").
    refutations_shared: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)

    def record_call(self, depth: int) -> None:
        """Record entering a recursive call at the given depth."""
        self.recursive_calls += 1
        if depth > self.max_recursion_depth:
            self.max_recursion_depth = depth

    def record_stage(self, stage: str, seconds: float) -> None:
        """Accumulate wall-clock time spent in a named pipeline stage."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def search_counters(self) -> dict[str, int]:
        """The kernel counters as a dict (used by the benches and reports)."""
        return {
            "labels_tried": self.labels_tried,
            "enum_branches_pruned": self.enum_branches_pruned,
            "enum_domination_skips": self.enum_domination_skips,
            "splitter_memo_hits": self.splitter_memo_hits,
            "splitter_memo_misses": self.splitter_memo_misses,
            "mask_table_builds": self.mask_table_builds,
            "bitset_memo_hits": self.bitset_memo_hits,
            "worker_respawns": self.worker_respawns,
        }


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of a single ``decompose(H, k)`` run.

    Frozen, so a result shared by caches and tickets cannot be reassigned;
    ``statistics`` is a mutable record all holders share.
    """

    algorithm: str
    hypergraph: Hypergraph
    width_parameter: int
    success: bool
    decomposition: Decomposition | None = None
    elapsed: float = 0.0
    timed_out: bool = False
    statistics: SearchStatistics = field(default_factory=SearchStatistics)

    @property
    def width(self) -> int | None:
        """Width of the decomposition found, or ``None`` if unsuccessful."""
        return self.decomposition.width if self.decomposition is not None else None

    @property
    def decided(self) -> bool:
        """True iff the run produced a definite yes/no answer (no timeout)."""
        return not self.timed_out

    def __repr__(self) -> str:
        status = "timeout" if self.timed_out else ("yes" if self.success else "no")
        return (
            f"<DecompositionResult {self.algorithm} k={self.width_parameter} "
            f"{status} {self.elapsed:.3f}s>"
        )


class SearchContext:
    """Per-run state shared by the recursive search implementations."""

    __slots__ = ("host", "k", "stats", "enumerator", "deadline", "refuted", "_calls")

    def __init__(
        self,
        host: Hypergraph,
        k: int,
        deadline: Deadline | None = None,
        stats: SearchStatistics | None = None,
        refuted: RefutedTable | None = None,
    ) -> None:
        if k < 1:
            raise SolverError(f"width parameter k must be >= 1, got {k}")
        self.host = host
        self.k = k
        self.stats = stats if stats is not None else SearchStatistics()
        self.enumerator = CoverEnumerator(host, k)
        self.enumerator.stats = self.stats
        #: The run's :class:`~repro.deadline.Deadline` (budget and/or the
        #: serving layer's cancel event); ``None`` for an unbounded run.
        self.deadline = deadline
        self.enumerator.deadline = deadline
        #: The parallel workers' shared table of refuted subproblems; the
        #: searches probe it after a private-memo miss.  ``None`` everywhere
        #: else (sequential and daemonic callers).
        self.refuted = refuted
        self._calls = 0

    def check_timeout(self) -> None:
        """Raise :class:`TimeoutExceeded` if the deadline passed or the run was cancelled.

        The check is throttled: the deadline is only polled every
        ``_TIMEOUT_STRIDE`` calls, which keeps its overhead negligible on the
        hot path.
        """
        if self.deadline is None:
            return
        self._calls += 1
        if self._calls % _TIMEOUT_STRIDE:
            return
        self.deadline.check("decomposition")

    def force_timeout_check(self) -> None:
        """Unthrottled deadline/cancellation check (used at recursion entry points)."""
        if self.deadline is not None:
            self.deadline.check("decomposition")


class SearchMemo:
    """The subproblem memo of det-k-decomp and log-k-decomp: key → fragment or None.

    Keys are ``(comp.edges, comp.specials, conn, allowed)``.  Fragments are
    persistent, so the memo stores and hands out shared nodes.  It belongs
    to the search object, not the context: the hybrid rebinds its det-k
    search to each forked worker's context, and the worker keeps the memo.
    """

    __slots__ = ("enabled", "table")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled  # False: every call expands (the ablation)
        self.table: dict[tuple, FragmentNode | None] = {}

    def solve(
        self, context: SearchContext, key: tuple, depth: int, expand: Callable[[], FragmentNode | None]
    ) -> FragmentNode | None:
        """``key``'s memoised answer, else ``expand()``'s, stored once it returns.

        An expansion unwound by an exception leaves nothing behind, and
        ``cache_misses`` counts expansions, memo on or off.  A miss probes
        the workers' shared refutations and a ``None`` is published there,
        but not at depth 1, which a worker restricts to its partition.
        """
        stats = context.stats
        if not self.enabled:
            stats.cache_misses += 1
            return expand()
        table = self.table
        if key in table:
            stats.cache_hits += 1
            return table[key]
        shared = context.refuted if depth > 1 else None
        if shared is not None and key in shared:
            stats.cache_hits += 1
            stats.refutations_shared += 1
            table[key] = None
            return None
        stats.cache_misses += 1
        result = expand()
        table[key] = result
        if result is None and shared is not None:
            shared.add(key)
        return result


class Decomposer(ABC):
    """Abstract base class of all decomposition algorithms.

    Subclasses implement :meth:`search`, which returns the fragment tree of
    a decomposition of width at most ``k`` or ``None``; :attr:`kind` is the
    decomposition class a found fragment is wrapped in.

    The public :meth:`decompose` routes through the staged
    :class:`~repro.pipeline.engine.DecompositionEngine` (width-preserving
    simplification, result cache, per-component search, lifting);
    :meth:`decompose_raw` is the one way to run the search directly on the
    given hypergraph.
    """

    name = "abstract"
    #: The conditions a found fragment claims (a GHD search drops the special one).
    kind: type[Decomposition] = HypertreeDecomposition

    def __init__(self, timeout: float | None = None, engine=None) -> None:
        self.timeout = timeout
        #: Optional explicit :class:`~repro.pipeline.engine.DecompositionEngine`;
        #: when ``None`` the process-wide default engine is used.
        self.engine = engine

    def search(
        self, context: SearchContext, root_partition: Iterable[int] | None = None
    ) -> FragmentNode | None:
        """Search the whole of ``context.host``; a complete fragment, or None.

        With ``root_partition`` (edge indices) log-k-decomp's depth-1 child
        loop only tries labels whose smallest edge lies in the partition —
        one worker's share of the parallel decomposer's search.  Nothing
        else is partitioned: not the hybrid's budgeted det-k root.
        """
        raise NotImplementedError

    def cache_key(self) -> tuple:
        """Identity of this algorithm configuration for engine cache keys.

        Covers every constructor option (including the timeout): cached
        entries are decided answers together with the producing run's search
        statistics, and a differently-configured instance — tighter budget,
        caching disabled, different hybrid threshold — must not be served an
        outcome it could not have produced itself.  Non-primitive option
        values contribute their type name (e.g. the hybrid metric object).
        """
        options: list[tuple[str, object]] = []
        for attr, value in sorted(vars(self).items()):
            if attr == "engine":
                continue  # engine plumbing, not algorithm configuration
            if isinstance(value, PRIMITIVE_OPTION_TYPES):
                options.append((attr, value))
            else:
                options.append((attr, type(value).__name__))
        return (self.name, tuple(options))

    def decompose(self, hypergraph: Hypergraph, k: int) -> DecompositionResult:
        """Decide whether ``hypergraph`` has an HD of width at most ``k``.

        Returns a :class:`DecompositionResult`; when ``success`` is True the
        result carries a concrete decomposition of width at most ``k`` whose
        host is ``hypergraph`` itself (decompositions found on the simplified
        instance are lifted back).
        """
        if hypergraph.num_edges == 0:
            raise SolverError("cannot decompose a hypergraph without edges")
        if self.engine is not None:
            return self.engine.decompose(self, hypergraph, k)
        from ..pipeline.engine import default_engine  # deferred: avoids an import cycle

        return default_engine().decompose(self, hypergraph, k)

    def decompose_raw(
        self, hypergraph: Hypergraph, k: int, deadline: Deadline | None = None
    ) -> DecompositionResult:
        """Run the search directly, without simplification, caching or lifting.

        The engine calls it once per connected component of the simplified
        instance, passing the call's one ``deadline`` (its budget and the
        serving layer's cancel event) so one ``decompose`` call never exceeds
        the configured budget overall.  ``None`` means a fresh deadline from
        ``self.timeout``.  A run stopped by the deadline is reported as
        ``timed_out``.
        """
        if hypergraph.num_edges == 0:
            raise SolverError("cannot decompose a hypergraph without edges")
        if deadline is None:
            deadline = Deadline.arm(self.timeout)
        context = SearchContext(hypergraph, k, deadline)
        start = time.monotonic()
        timed_out, fragment = False, None
        try:
            fragment = self.search(context)
        except TimeoutExceeded:
            timed_out = True
        decomposition = (
            None if fragment is None else fragment_to_decomposition(hypergraph, fragment, self.kind)
        )
        elapsed = time.monotonic() - start
        return DecompositionResult(
            algorithm=self.name,
            hypergraph=hypergraph,
            width_parameter=k,
            success=decomposition is not None,
            decomposition=decomposition,
            elapsed=elapsed,
            timed_out=timed_out,
            statistics=context.stats,
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} timeout={self.timeout}>"
