"""The query API: plan once, execute many.

This is the end-to-end application pipeline the paper's introduction
motivates: abstract the CQ to its hypergraph, compute a hypertree
decomposition of width ``k``, compile its join tree into an operator program
(:mod:`repro.query.plan`) and run that on one of the two executors — at a
total cost polynomial for every fixed ``k``.  :class:`QueryEngine` is the one
place a query is planned; :func:`evaluate_query` is the one-call facade over a
shared engine.  An engine owns

* a **decomposer** built through :mod:`repro.pipeline.registry`, so every
  decomposition runs through the staged
  :class:`~repro.pipeline.engine.DecompositionEngine` (simplification +
  canonical-hash result cache): two queries with the same hypergraph share
  one decomposition search even if their relation names differ;
* a **plan cache** — an LRU obtained from the decomposition engine's
  :meth:`~repro.pipeline.engine.DecompositionEngine.auxiliary_cache`, keyed
  by (query signature, answer mode, decomposer ``cache_key()``), so repeated
  query shapes skip planning entirely;
* per-database **column stores** so dictionary encodings and base-relation
  key indexes persist across the queries of a workload.

:class:`QueryWorkload` batches queries against one database and reports
aggregate timings plus cache traffic — the serving loop in miniature.

Example (doctest-verified):

    >>> from repro import DecompositionEngine
    >>> from repro.hypergraph.cq import parse_conjunctive_query
    >>> from repro.query import QueryEngine, QueryWorkload, random_database_for_query
    >>> query = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z).")
    >>> database = random_database_for_query(query, seed=1)
    >>> engine = QueryEngine(engine=DecompositionEngine())
    >>> engine.execute(query, database).width   # an acyclic chain: width 1
    1
    >>> report = QueryWorkload(database, engine=engine).extend([query] * 3).run()
    >>> (report.queries_run, report.plan_cache_hits)
    (3, 3)
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field
from functools import lru_cache

from ..core.width import smallest_width
from ..deadline import Deadline
from ..decomp.decomposition import Decomposition
from ..decomp.jointree import JoinTree, join_tree_from_decomposition
from ..exceptions import QueryError, SolverError
from ..hypergraph.cq import ConjunctiveQuery
from ..pipeline.engine import DecompositionEngine, default_engine
from ..pipeline.registry import registry
from .columnar import ColumnStore, ExecutionResult, PlanExecutor
from .database import Database
from .plan import AnswerMode, QueryPlan, check_executor, compile_plan
from .relation import Relation
from .sqlgen import SQLExecutor, SQLStore, compile_sql

__all__ = [
    "PlannedQuery",
    "QueryAnswer",
    "QueryResult",
    "QueryEngine",
    "QueryWorkload",
    "WorkloadReport",
    "evaluate_query",
]


def query_signature(query: ConjunctiveQuery) -> tuple:
    """Structural identity of a query: atoms (relation + arguments) and output.

    Two queries with equal signatures compile to interchangeable plans; the
    signature deliberately ignores the query name.
    """
    atoms = tuple((atom.relation, atom.arguments) for atom in query.atoms)
    return (atoms, tuple(dict.fromkeys(query.free_variables)))


@dataclass
class PlannedQuery:
    """A compiled plan plus the decomposition artefacts it came from."""

    plan: QueryPlan
    decomposition: Decomposition
    join_tree: JoinTree
    width: int
    decomposition_seconds: float
    compile_seconds: float


@dataclass
class QueryResult:
    """One executed query: the execution payload plus serving metadata."""

    query: ConjunctiveQuery
    planned: PlannedQuery
    execution: ExecutionResult
    plan_cached: bool
    plan_seconds: float
    execution_seconds: float

    @property
    def mode(self) -> AnswerMode:
        """The answer mode the plan was compiled for."""
        return self.planned.plan.mode

    @property
    def answers(self) -> Relation | None:
        """The answer relation (``ENUMERATE`` mode only)."""
        return self.execution.answers

    @property
    def boolean(self) -> bool:
        """Whether the query has at least one answer."""
        return bool(self.execution.boolean)

    @property
    def count(self) -> int | None:
        """The number of distinct answers (``COUNT``/``ENUMERATE`` modes)."""
        return self.execution.count

    @property
    def width(self) -> int:
        """The hypertree width of the plan's decomposition."""
        return self.planned.width


@dataclass
class QueryAnswer:
    """A host-free query outcome — what crosses the process boundary.

    Field-compatible with the read surface of :class:`QueryResult`
    (``mode``/``answers``/``boolean``/``count``/``width`` plus the serving
    metadata), but without the live :class:`PlannedQuery`/execution objects:
    the process-backed serving layer decodes worker answers into this shape
    (see :mod:`repro.core.codec`), so callers can consume decomposition-
    and query-service tickets uniformly across backends.
    """

    mode: AnswerMode
    answers: Relation | None
    boolean: bool
    count: int | None
    width: int
    plan_cached: bool
    plan_seconds: float
    execution_seconds: float
    #: The execution's :meth:`ExecutionStatistics.as_dict` counters.
    statistics: dict = field(default_factory=dict)


@dataclass
class WorkloadReport:
    """Aggregate outcome of a :class:`QueryWorkload` run."""

    results: list[QueryResult] = field(default_factory=list)
    total_seconds: float = 0.0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0

    @property
    def queries_run(self) -> int:
        """Number of executed queries."""
        return len(self.results)


class QueryEngine:
    """Plan-compiled query evaluation with cached plans.

    ``algorithm`` is any registry name, ``max_width`` (at least 1) and
    ``timeout`` bound the decomposition search; an unknown algorithm or an
    option it does not take is a :class:`~repro.exceptions.SolverError`
    here.  ``engine`` pins an explicit
    :class:`~repro.pipeline.engine.DecompositionEngine`; by default the
    process-wide engine is used, so plans and decompositions are shared with
    every other caller and reset together via
    :func:`repro.pipeline.engine.set_default_engine`.
    """

    PLAN_CACHE_NAME = "query-plans"
    SQL_CACHE_NAME = "query-sql"

    def __init__(
        self,
        algorithm: str = "hybrid",
        max_width: int = 10,
        timeout: float | None = None,
        engine: DecompositionEngine | None = None,
        **algorithm_options,
    ) -> None:
        if max_width < 1:
            raise SolverError("max_width must be >= 1")
        self.algorithm = algorithm
        self.max_width = max_width
        self.timeout = timeout
        self.engine = engine
        try:
            #: The one decomposer every plan-cache miss runs.
            self._decomposer = registry.build(
                algorithm, timeout=timeout, engine=engine, **algorithm_options
            )
        except TypeError as error:
            raise SolverError(f"bad algorithm configuration: {error}") from None
        self._configuration = self._decomposer.cache_key()
        #: Per-database column stores, dropped when the database is collected.
        self._stores: "weakref.WeakKeyDictionary[Database, ColumnStore]" = (
            weakref.WeakKeyDictionary()
        )
        #: Per-database SQL stores (connection + interned base tables) for
        #: the ``executor="sql"`` arm, with the same lifetime rule.
        self._sql_stores: "weakref.WeakKeyDictionary[Database, SQLStore]" = (
            weakref.WeakKeyDictionary()
        )
        self._stores_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    @property
    def configuration(self) -> tuple:
        """The :meth:`~repro.core.base.Decomposer.cache_key` of this engine's
        decomposer, so aliases and defaulted options collapse to one
        identity; the plan and SQL-program caches and the serving layer's
        dedup table key on it."""
        return self._configuration

    # ------------------------------------------------------------------ #
    # caches
    # ------------------------------------------------------------------ #
    def _decomposition_engine(self) -> DecompositionEngine:
        return self.engine if self.engine is not None else default_engine()

    def _plan_cache(self):
        return self._decomposition_engine().auxiliary_cache(self.PLAN_CACHE_NAME)

    def store_for(self, database: Database) -> ColumnStore:
        """The persistent column store of ``database`` (created on demand).

        Guarded by a lock so concurrent executions against a new database
        agree on one store — two stores for one database would intern the
        same values under different codes and waste every shared index.
        """
        with self._stores_lock:
            store = self._stores.get(database)
            if store is None:
                store = ColumnStore(database)
                self._stores[database] = store
            return store

    def sql_store_for(self, database: Database) -> SQLStore:
        """The persistent SQL store of ``database`` (created on demand).

        Same uniqueness argument as :meth:`store_for`: one store per
        database keeps one connection and one set of loaded base tables.
        Values intern through :meth:`store_for`'s column store, so both arms
        share one dictionary."""
        columns = self.store_for(database)  # before the lock: it is not re-entrant
        with self._stores_lock:
            store = self._sql_stores.get(database)
            if store is None:
                store = SQLStore(database, columns)
                self._sql_stores[database] = store
            return store

    def sql_program(self, query: ConjunctiveQuery, planned: PlannedQuery, store: SQLStore):
        """The cached SQL rendering of ``planned`` for ``store``'s source.

        Cached next to the plan cache in the decomposition engine's
        auxiliary LRU, keyed like a plan plus the source fingerprint —
        sources whose used relations agree in table name and columns share
        one program (its hashed table names are per-store facts)."""
        key = (
            query_signature(query),
            planned.plan.mode.value,
            self._configuration,
            self.max_width,
            store.source_fingerprint(planned.plan),
        )
        cache = self._decomposition_engine().auxiliary_cache(self.SQL_CACHE_NAME)
        program = cache.get(key)
        if program is None:
            program = compile_sql(planned.plan, store.catalog_for(planned.plan))
            cache.put(key, program)
        return program

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def plan(
        self, query: ConjunctiveQuery, mode: AnswerMode | str = AnswerMode.ENUMERATE
    ) -> tuple[PlannedQuery, bool]:
        """Return the compiled plan for ``query`` and whether it was cached."""
        mode = AnswerMode.coerce(mode)
        key = (query_signature(query), mode.value, self._configuration, self.max_width)
        cache = self._plan_cache()
        planned = cache.get(key)
        if planned is not None:
            with self._counter_lock:  # += is a non-atomic read-modify-write
                self.plan_cache_hits += 1
            return planned, True
        with self._counter_lock:
            self.plan_cache_misses += 1

        start = time.monotonic()
        # A timeout raises TimeoutExceeded; (None, None) means "wider".
        width, decomposition = smallest_width(
            query.hypergraph(), self._decomposer, max_width=self.max_width
        )
        decomposition_seconds = time.monotonic() - start
        if width is None or decomposition is None:
            raise QueryError(
                f"no hypertree decomposition of width <= {self.max_width} found "
                f"for the query"
            )
        start = time.monotonic()
        join_tree = join_tree_from_decomposition(decomposition)
        plan = compile_plan(query, join_tree, mode)
        compile_seconds = time.monotonic() - start
        planned = PlannedQuery(
            plan=plan,
            decomposition=decomposition,
            join_tree=join_tree,
            width=width,
            decomposition_seconds=decomposition_seconds,
            compile_seconds=compile_seconds,
        )
        cache.put(key, planned)
        return planned, False

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: ConjunctiveQuery,
        database: Database,
        mode: AnswerMode | str = AnswerMode.ENUMERATE,
        *,
        executor: str = "columnar",
        cancel_event=None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Plan (or fetch the cached plan for) ``query`` and run it.

        ``executor`` picks the execution arm for the shared plan:
        ``"columnar"`` (default) runs in-memory; ``"sql"`` pushes the plan
        down into SQLite (see :mod:`repro.query.sqlgen`), reusing the plan
        cache and caching the generated SQL program alongside it.

        ``cancel_event`` (anything with an ``is_set`` method) and ``timeout``
        (seconds) arm one :class:`~repro.deadline.Deadline` for the
        *execution* stage: the columnar executor polls it periodically and
        raises :class:`~repro.exceptions.TimeoutExceeded` promptly, and the
        SQL executor interrupts the in-flight statement with the same
        semantics.  Planning is bounded separately by the engine-level
        ``timeout`` — the plan cache is keyed on the engine configuration,
        so a per-request deadline must not change what gets cached.
        """
        check_executor(executor)
        start = time.monotonic()
        planned, cached = self.plan(query, mode)
        plan_seconds = time.monotonic() - start

        if executor == "sql":
            sql_store = self.sql_store_for(database)
            program = self.sql_program(query, planned, sql_store)
            arm, store, args = SQLExecutor, sql_store, (planned.plan, program)
        else:
            arm, store, args = PlanExecutor, self.store_for(database), (planned.plan,)
        # The execution budget starts after planning.
        start = time.monotonic()
        execution = arm(store, Deadline.arm(timeout, cancel_event)).execute(*args)
        execution_seconds = time.monotonic() - start
        return QueryResult(
            query=query,
            planned=planned,
            execution=execution,
            plan_cached=cached,
            plan_seconds=plan_seconds,
            execution_seconds=execution_seconds,
        )


class QueryWorkload:
    """A batch of (query, mode) pairs served against one database.

    Build it incrementally with :meth:`add` (or pass queries up front), then
    :meth:`run`.  All queries share the engine's plan cache, decomposition
    cache and the database's column store, so repeated shapes are served
    from warm state — the report's cache counters make that visible.
    """

    def __init__(
        self,
        database: Database,
        engine: QueryEngine | None = None,
        executor: str = "columnar",
    ) -> None:
        self.database = database
        self.engine = engine if engine is not None else QueryEngine()
        self.executor = check_executor(executor)
        self._items: list[tuple[ConjunctiveQuery, AnswerMode]] = []

    def add(
        self, query: ConjunctiveQuery, mode: AnswerMode | str | None = None
    ) -> "QueryWorkload":
        """Append a query (chainable); no ``mode`` means enumerate."""
        resolved = AnswerMode.ENUMERATE if mode is None else AnswerMode.coerce(mode)
        self._items.append((query, resolved))
        return self

    def extend(self, queries, mode: AnswerMode | str | None = None) -> "QueryWorkload":
        """Append many queries with one mode (chainable)."""
        for query in queries:
            self.add(query, mode)
        return self

    def __len__(self) -> int:
        return len(self._items)

    def run(self) -> WorkloadReport:
        """Execute every query; returns the per-query results plus totals."""
        report = WorkloadReport()
        hits_before = self.engine.plan_cache_hits
        misses_before = self.engine.plan_cache_misses
        start = time.monotonic()
        for query, mode in self._items:
            report.results.append(
                self.engine.execute(query, self.database, mode, executor=self.executor)
            )
        report.total_seconds = time.monotonic() - start
        report.plan_cache_hits = self.engine.plan_cache_hits - hits_before
        report.plan_cache_misses = self.engine.plan_cache_misses - misses_before
        return report


@lru_cache(maxsize=32)
def _shared_engine(algorithm: str, max_width: int, timeout: float | None) -> QueryEngine:
    """The engine behind :func:`evaluate_query`, one per configuration."""
    return QueryEngine(algorithm, max_width, timeout)


def evaluate_query(
    query: ConjunctiveQuery,
    database: Database,
    algorithm: str = "hybrid",
    max_width: int = 10,
    timeout: float | None = None,
    executor: str = "columnar",
    mode: AnswerMode | str = AnswerMode.ENUMERATE,
) -> QueryResult:
    """Evaluate ``query`` over ``database`` guided by a minimum-width HD.

    One call of :meth:`QueryEngine.execute` on a process-wide engine built
    from ``algorithm``/``max_width``/``timeout`` (see
    :class:`QueryEngine`), so repeated shapes hit its plan cache and a
    database keeps its column or SQL store for as long as it lives.  The
    decomposition, join tree and plan are under :attr:`QueryResult.planned`.
    """
    engine = _shared_engine(algorithm, max_width, timeout)
    return engine.execute(query, database, mode, executor=executor)
