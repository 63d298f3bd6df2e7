"""The staged decomposition engine: cache → simplify → decompose → lift.

Every :meth:`repro.core.base.Decomposer.decompose` call routes through a
:class:`DecompositionEngine`; :meth:`~repro.core.base.Decomposer.decompose_raw`
is the raw search the engine runs per component.  A run proceeds in stages,
each timed into ``SearchStatistics.stage_seconds``:

1. **cache** — look the *input* up in an LRU result cache (L1) keyed by
   ``(canonical hypergraph hash, k, algorithm cache key)``.  Only *decided*
   outcomes are stored — timeouts are never cached — and positive entries
   keep the tree already lifted onto the input, so a hit is hash, probe and
   a :class:`~repro.decomp.decomposition.Decomposition` over the caller's
   hypergraph sharing the stored (frozen) tree: no simplify, no lift;
2. **simplify** — on a miss, apply the width-preserving reductions of
   :mod:`repro.pipeline.simplify` (subsumed edges, interchangeable
   degree-one vertices) and keep the reversible trace.  An engine built with
   a ``catalog`` (a durable :class:`~repro.catalog.DecompositionCatalog`,
   L2) then looks the *reduced* instance up there; loaded certificates are
   re-validated before use;
3. **decompose** — split the reduced instance into vertex-connected
   components and run the underlying algorithm
   (:meth:`~repro.core.base.Decomposer.decompose_raw`) on each.  HDs of
   disjoint components are grafted under a new copy of the first component's
   root: no node of one component shares vertices with another, so
   connectedness and the special condition hold trivially for the combined
   tree and its width is the maximum of the component widths — exactly
   ``hw`` of a disconnected hypergraph;
4. **lift** — replay the simplification trace backwards
   (:func:`~repro.pipeline.simplify.lift_decomposition`) so the returned
   decomposition is hosted on the *original* hypergraph.  The lifted tree
   goes into L1 before a searched outcome is stored in the catalog, so the
   durable tier is never *ahead* of the in-memory one in a process.

The engine is what makes preprocessing wins apply uniformly: the CLI, the
benchmark harness, the query layer and user code all construct algorithms
through the registry and call ``decompose``, so they all inherit the same
pipeline, including the parallel backend (whose worker partitioning then
operates on the already-reduced instance).

Example (doctest-verified):

    >>> from repro import DecompositionEngine, LogKDecomposer
    >>> from repro.hypergraph import generators
    >>> engine = DecompositionEngine()
    >>> decomposer = LogKDecomposer(engine=engine)
    >>> decomposer.decompose(generators.cycle(8), 2).success
    True
    >>> repeat = decomposer.decompose(generators.cycle(8), 2)  # cache hit
    >>> engine.cache.statistics.hits
    1
    >>> "decompose" in repeat.statistics.stage_seconds  # no search ran
    False
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace

from .. import faults
from ..catalog import DecompositionCatalog
from ..core.base import Decomposer, DecompositionResult, SearchStatistics
from ..deadline import Deadline
from ..decomp.decomposition import (
    Decomposition,
    DecompositionNode,
    HypertreeDecomposition,
)
from ..hypergraph import Hypergraph
from ..hypergraph.properties import connected_components
from ..lru import CacheStatistics, SharedLRU
from .simplify import lift_decomposition, simplify

__all__ = [
    "CacheStatistics",
    "ResultCache",
    "DecompositionEngine",
    "default_engine",
    "set_default_engine",
]


@dataclass(frozen=True)
class _CacheEntry:
    """A decided (never timed-out) outcome for an input hypergraph.

    ``root`` is the tree already lifted onto the input.  ``stats`` are the
    producing run's search counters (stage timings stripped); they are
    replayed into hit results so statistics-based analyses (recursion depth,
    label counts) stay meaningful and deterministic whether or not the cache
    intervened.  The input is identified solely by the SHA-256 canonical
    hash inside the key, a digest of its edge and vertex names.
    """

    success: bool
    root: DecompositionNode | None
    kind: type  # Decomposition subclass produced by the algorithm
    stats: SearchStatistics


class ResultCache:
    """Thread-safe LRU cache of decided decomposition outcomes.

    The entries live in a :class:`~repro.lru.SharedLRU`, so the
    :class:`~repro.service.DecompositionService` worker threads can probe
    it concurrently.  The engine keys it by the input's canonical hash,
    ``k`` and ``cache_key()``, and a positive entry holds the lifted tree.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        self._entries = SharedLRU(max_entries)

    @property
    def statistics(self) -> CacheStatistics:
        """A snapshot of the hit/miss/store/eviction counters."""
        return self._entries.stats()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def get(self, key: tuple) -> _CacheEntry | None:
        return self._entries.get(key)

    def put(
        self,
        key: tuple,
        success: bool,
        root: DecompositionNode | None,
        kind: type,
        stats: SearchStatistics,
    ) -> None:
        """Store a decided outcome; ``root`` is ``None`` for a "no"."""
        self._entries.put(key, _CacheEntry(success, root, kind, replace(stats, stage_seconds={})))


class DecompositionEngine:
    """Runs decomposers through the staged pipeline described in the module docs.

    Parameters
    ----------
    cache:
        ``True`` (the default) for a private :class:`ResultCache`, ``False``
        to run without one.
    catalog:
        A durable L2 tier behind the result cache: a
        :class:`~repro.catalog.DecompositionCatalog`, or a path (``str`` /
        :class:`~pathlib.Path`) to open one on.  ``None`` (the default)
        keeps the engine memory-only.  Misses in L1 fall through to the
        catalog; every certificate loaded from it is re-validated against
        the independent oracle before being trusted, and decided outcomes
        are stored in the catalog after the L1 store.
    """

    def __init__(
        self,
        *,
        cache: bool = True,
        catalog: "DecompositionCatalog | str | None" = None,
    ) -> None:
        if not isinstance(cache, bool):
            raise TypeError(f"cache must be True or False, not {cache!r}")
        self.cache = ResultCache() if cache else None
        if catalog is not None and not isinstance(catalog, DecompositionCatalog):
            catalog = DecompositionCatalog(catalog)
        self.catalog = catalog
        self._auxiliary: dict[str, SharedLRU] = {}
        self._auxiliary_lock = threading.Lock()

    def auxiliary_cache(self, name: str) -> SharedLRU:
        """A named 256-entry side-cache sharing this engine's lifecycle.

        Downstream layers that key derived artefacts off decomposition work —
        the query planner caches compiled :class:`~repro.query.plan.QueryPlan`
        programs here — get an LRU that lives and dies with the engine, so
        :func:`set_default_engine` (used by tests to isolate cache state)
        resets them together with the result cache.  Every caller of one
        name receives the same :class:`~repro.lru.SharedLRU`, safe to hit
        from the concurrent serving layer without further locking.
        """
        with self._auxiliary_lock:
            cache = self._auxiliary.get(name)
            if cache is None:
                cache = SharedLRU(256)
                self._auxiliary[name] = cache
            return cache

    # ------------------------------------------------------------------ #
    # pipeline
    # ------------------------------------------------------------------ #
    def decompose(
        self,
        decomposer: Decomposer,
        hypergraph: Hypergraph,
        k: int,
        cancel_event: threading.Event | None = None,
    ) -> DecompositionResult:
        """Run the full pipeline; the result is hosted on ``hypergraph``.

        ``cancel_event`` (a :class:`threading.Event`) joins the decomposer's
        ``timeout`` in the one :class:`~repro.deadline.Deadline` that the
        per-component searches poll, built when the decompose stage starts:
        setting it makes the run abort at the next periodic check and report
        ``timed_out`` — how the serving layer stops the search behind a
        cancelled ticket.  Cancelled runs are never cached.
        """
        # An error injected here propagates like any engine bug would:
        # through the decomposer into the caller (or the service worker's
        # task-failure path) — the chaos suite uses it to assert failure
        # propagation stays debuggable end to end.
        faults.fire("engine.decompose", algorithm=decomposer.name, k=k)
        start = time.monotonic()
        stats = SearchStatistics()
        configuration = decomposer.cache_key()

        # Stage 1: L1, keyed by the input itself and holding the lifted tree,
        # so a hit runs no simplify and no lift.
        key = entry = None
        if self.cache is not None:
            t0 = time.monotonic()
            key = (hypergraph.canonical_hash(), k, configuration)
            entry = self.cache.get(key)
            stats.record_stage("cache", time.monotonic() - t0)
        if entry is not None:
            # Replay the producing run's counters; engine-level hit/miss
            # totals live in ``self.cache.statistics``, not here, because
            # SearchStatistics.cache_* belong to the algorithms' own
            # subproblem caches.
            stats.merge(entry.stats)
            success, timed_out = entry.success, False
            decomposition = None if entry.root is None else entry.kind(hypergraph, entry.root)
        else:
            success, timed_out, decomposition = self._miss(
                decomposer, hypergraph, k, configuration, key, stats, cancel_event
            )
        return DecompositionResult(
            algorithm=decomposer.name,
            hypergraph=hypergraph,
            width_parameter=k,
            success=success,
            decomposition=decomposition,
            elapsed=time.monotonic() - start,
            timed_out=timed_out,
            statistics=stats,
        )

    def _miss(
        self,
        decomposer: Decomposer,
        hypergraph: Hypergraph,
        k: int,
        configuration: tuple,
        key: tuple | None,
        stats: SearchStatistics,
        cancel_event: threading.Event | None,
    ) -> tuple[bool, bool, Decomposition | None]:
        """Stages 2-4 of an L1 miss: ``(success, timed_out, lifted decomposition)``."""
        # Stage 2: simplification, then the catalog (L2) on the reduced instance.
        t0 = time.monotonic()
        trace = simplify(hypergraph)
        reduced = trace.reduced
        stats.record_stage("simplify", time.monotonic() - t0)
        record = None
        if self.catalog is not None:
            t0 = time.monotonic()
            record = self.catalog.get(reduced, k, configuration)
            stats.record_stage("cache", time.monotonic() - t0)
        if record is not None:
            # The catalog re-validated the certificate against ``reduced``.
            stats.merge(record.stats)
            success, timed_out, root, kind = record.success, False, record.root, record.kind
        else:
            # Stage 3: per-component decomposition.
            t0 = time.monotonic()
            success, timed_out, root, kind = self._decompose_components(
                decomposer, reduced, k, stats, cancel_event
            )
            stats.record_stage("decompose", time.monotonic() - t0)

        # Stage 4: build the certificate once, for the catalog and the lift,
        # and lift it back to the original hypergraph.
        certificate = decomposition = None
        if success and root is not None:
            t0 = time.monotonic()
            # When nothing reduced, ``reduced`` is ``hypergraph`` itself.
            certificate = decomposition = kind(reduced, root)
            if trace.reduced_anything:
                decomposition = lift_decomposition(trace, certificate)
            stats.record_stage("lift", time.monotonic() - t0)

        if not timed_out:
            # L1 first, then the catalog store (committed when ``put``
            # returns): within a process the catalog never gets ahead of the
            # in-memory tier.
            if key is not None:
                lifted = None if decomposition is None else decomposition.root
                self.cache.put(key, success, lifted, kind, stats)
            if self.catalog is not None and record is None:
                self.catalog.put(
                    reduced,
                    k,
                    configuration,
                    algorithm=decomposer.name,
                    success=success,
                    decomposition=certificate,
                    stats=stats,
                    wall_seconds=stats.stage_seconds.get("decompose", 0.0),
                )
        return success, timed_out, decomposition

    def _decompose_components(
        self,
        decomposer: Decomposer,
        reduced: Hypergraph,
        k: int,
        stats: SearchStatistics,
        cancel_event: threading.Event | None = None,
    ) -> tuple[bool, bool, DecompositionNode | None, type]:
        """Decompose each connected component and graft the HDs together."""
        groups = connected_components(reduced)
        if len(groups) <= 1:
            hosts = [reduced]
        else:
            hosts = [reduced.subhypergraph(group, name=reduced.name) for group in groups]

        # One deadline for the whole call: each component gets the budget that
        # remains, not a full timeout of its own, and sees the cancel event.
        deadline = Deadline.arm(decomposer.timeout, cancel_event)
        roots: list[DecompositionNode] = []
        kind: type = HypertreeDecomposition
        for host in hosts:
            if deadline is not None and deadline.reason() is not None:
                return False, True, None, kind
            result = decomposer.decompose_raw(host, k, deadline)
            stats.merge(result.statistics)
            if result.timed_out:
                return False, True, None, kind
            if not result.success or result.decomposition is None:
                return False, False, None, kind
            kind = type(result.decomposition)
            roots.append(result.decomposition.root)

        combined = roots[0]
        if len(roots) > 1:
            combined = replace(combined, children=combined.children + tuple(roots[1:]))
        return True, False, combined, kind


_default_engine: DecompositionEngine | None = None
_default_engine_lock = threading.Lock()


def default_engine() -> DecompositionEngine:
    """The process-wide engine used when a decomposer has no explicit one."""
    global _default_engine
    if _default_engine is None:
        with _default_engine_lock:
            if _default_engine is None:
                _default_engine = DecompositionEngine()
    return _default_engine


def set_default_engine(engine: DecompositionEngine | None) -> None:
    """Replace the process-wide default engine (``None`` resets to a fresh one)."""
    global _default_engine
    with _default_engine_lock:
        _default_engine = engine
