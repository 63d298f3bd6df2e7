"""SQL pushdown execution of compiled query plans.

The second executor arm: a :class:`~repro.query.plan.QueryPlan` — already an
explicit operator program — compiles to a SQL program executed on SQLite.
The planner and decomposition layers stay untouched; only the operator
interpretation moves into the database engine, which is what lets databases
far larger than memory be answered with Yannakakis-over-SQL:

1. every atom becomes an indexed ``CREATE TEMP TABLE`` over its base table,
   projecting onto the atom's distinct variables and enforcing
   repeated-variable equality (mirrors
   :meth:`~repro.query.columnar.ColumnStore.atom_table`); indexes on the
   probed columns keep the correlated ``EXISTS`` probes at seek cost;
2. every :class:`~repro.query.plan.BagOp` materialises as
   ``CREATE TEMP TABLE bag_<h> AS SELECT DISTINCT ...`` joining the λ-cover
   tables, with one ``EXISTS`` per atom in the bag's ``filters`` (the
   assigned atoms that are not cover atoms: a cover row is its own witness,
   so no other probe could fail);
3. every semijoin of the bottom-up/top-down passes derives a new table,
   ``CREATE TEMP TABLE red_<h> AS SELECT T.* FROM <target> AS T WHERE EXISTS
   (... <source> ...)`` — the full reduction, never destroying its inputs;
4. the plan's bottom-up join schedule compiles step by step — each
   :class:`~repro.query.plan.JoinOp` becomes one ``CREATE TEMP TABLE
   join_<h> AS SELECT DISTINCT ...`` over the previous step's tables (never
   a flat n-way join, which SQLite caps at 64 tables and misorders long
   before that), so every intermediate stays within Yannakakis'
   output-bounded guarantee.  Each step selects the columns the plan says
   the join writes (``JoinOp.schema``): a node's last join writes what its
   consumer reads, so a parent reads a child that has children as it is
   (no ``SELECT DISTINCT`` subquery), and the plan's one
   :class:`~repro.query.plan.ProjectOp` — a root without children —
   becomes a ``proj_<h>`` table; only ``enumerate`` then
   reads the root's result with a ``SELECT`` — ``boolean`` and ``count``
   are answered from the row count the store registered for the root table
   (no statement, rows are never decoded).

Every table is a pure function of its inputs and is *named* by a hash of its
defining ``SELECT`` — which mentions its inputs by their hashed names — so
on one :class:`SQLStore` an equal name means equal contents.  The store
keeps ("recycles") the tables across executions, up to a row budget: a step
whose name the store still holds is skipped, so the three answer modes of
one query shape share atoms, bags and the bottom-up pass, and a repeated
query runs at most its final ``SELECT``.  In-memory sources never change under
a store; an on-disk file is watched through ``PRAGMA data_version`` and a
commit by another connection drops every recycled table.  Each statement
reads its own snapshot of the file, so an execution that a commit landed in
runs again at the new version.

Two data sources are supported.  An in-memory
:class:`~repro.query.database.Database` is bulk-loaded once per
:class:`SQLStore` with every value interned to an integer code through the
database's :class:`~repro.query.columnar.ColumnStore` (one value dictionary
for both executors), so SQL equality is exactly Python equality
and enumerate answers decode byte-identical to the other executors.  A
:class:`SQLDatabase` wraps an existing SQLite *file*: the executor opens the
file directly and rows never enter Python (except decoded answers), while
``get()`` still lazily materialises relations so the columnar arm — and
the differential tests — accept the same handle.

All equality predicates use SQLite's null-safe ``IS`` operator, so ``None``
values join with themselves exactly as they do in the Python executors.

Cancellation polls the same :class:`~repro.deadline.Deadline` as the
columnar executor, on the executing thread: an armed execution installs a
:meth:`sqlite3.Connection.set_progress_handler` callback that polls it every
``_PROGRESS_STEPS`` SQLite instructions of the program steps and the answer
fetch and aborts the statement when the deadline fires (cancel event set or
instant passed); the interrupted statement surfaces as
:class:`~repro.exceptions.TimeoutExceeded` with the same messages — the
serving layer's ``cancelled_running`` accounting works unchanged.  No SQL
execution starts a thread.
Transient SQLite errors at the ``sqlgen.connect`` / ``sqlgen.exec`` fault
points are retried per statement under a :class:`~repro.faults.RetryPolicy`
(each statement is atomic, so a retry can never double-apply); interrupts
are never retried.
"""

from __future__ import annotations

import hashlib
import sqlite3
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain

from .. import faults
from ..deadline import Deadline
from ..exceptions import QueryError, TimeoutExceeded
from ..faults.resilience import RetryPolicy
from .columnar import ColumnStore, ExecutionResult, ExecutionStatistics
from .database import Database
from .plan import AnswerMode, JoinOp, QueryPlan
from .relation import Relation

__all__ = [
    "SQLProgram",
    "SQLDatabase",
    "SQLStore",
    "SQLExecutor",
    "compile_sql",
    "dump_database",
]

#: SQLite virtual-machine instructions between two deadline polls of an
#: armed execution; bounds how late an interrupt lands.
_PROGRESS_STEPS = 10_000
#: Rows of recycled temp tables a :class:`SQLStore` keeps; beyond it the
#: least recently used tables not pinned by the running program are dropped.
_ROW_BUDGET = 1_000_000
#: ``(step kind, recycled?)`` → the ``ExecutionStatistics`` counter it bumps.
_COUNTERS = {
    ("bag", False): "bags_built",
    ("bag", True): "bags_reused",
    ("index", False): "indexes_built",
    ("index", True): "indexes_reused",
    ("red", False): "semijoins_run",
    ("join", False): "joins_run",
}


def _quote(name: str) -> str:
    """Quote an arbitrary string as a SQL identifier."""
    return '"' + str(name).replace('"', '""') + '"'


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


@dataclass(frozen=True)
class SQLProgram:
    """A compiled, connection-independent SQL rendering of one plan.

    ``steps`` lists ``(kind, name, sql)`` in execution order: ``sql`` creates
    the temp table ``name`` — of ``kind`` ``"atom"``, ``"bag"``, ``"red"``
    (one semijoin), ``"join"`` or ``"proj"`` — or the ``"index"`` ``name``.
    A table's name hashes its defining ``SELECT``, which mentions its inputs
    by *their* hashed names, so on one store a name determines the contents
    and a step whose name the store still holds need not run.  ``answer`` is
    the final ``SELECT`` over the table ``root`` and ``answer_kind`` says how
    to interpret its single result — ``"rows"`` (enumerate), ``"count"`` (a
    scalar count) or ``"exists"`` (a 0/1 existence flag); the executor runs
    it for ``"rows"`` only, the scalars being ``root``'s registered row count.
    """

    mode: AnswerMode
    output: tuple[str, ...]
    steps: tuple[tuple[str, str, str], ...]
    answer: str
    answer_kind: str
    root: str

    @property
    def statements(self) -> tuple[str, ...]:
        """Every statement of the program in execution order (answer last)."""
        return tuple(sql for _, _, sql in self.steps) + (self.answer,)

    def describe(self) -> str:
        """The SQL program as one script."""
        return ";\n".join(self.statements) + ";"


def compile_sql(plan: QueryPlan, catalog: dict[str, tuple[str, tuple[str, ...]]]) -> SQLProgram:
    """Compile ``plan`` into a :class:`SQLProgram`.

    ``catalog`` maps each relation name used by the plan to its base table
    — ``(quoted SQL table reference, column names in schema order)`` — which
    is the only source-specific input: the interned in-memory tables and an
    attached database file compile through the same generator.
    """
    steps: dict[str, tuple[str, str, str]] = {}

    def table(kind: str, select: str) -> str:
        """The table holding ``select``, named by its hash (one step a name)."""
        name = f"{kind}_{_digest(select)}"
        steps.setdefault(name, (kind, name, f"CREATE TEMP TABLE {name} AS {select}"))
        return name

    def index(on: str, columns: tuple[str, ...]) -> None:
        """Index table ``on`` on ``columns`` (once) so correlated probes seek."""
        if columns:
            cols = ", ".join(_quote(c) for c in columns)
            name = f"{on}_ix{_digest(cols)}"
            steps.setdefault(name, ("index", name, f"CREATE INDEX {name} ON {on} ({cols})"))

    # -- atom tables: project onto distinct variables, enforce repeats ------ #
    # Materialised (not views): the assigned-atom EXISTS probes below are
    # correlated subqueries, and SQLite re-evaluates a *view* body per outer
    # row — an indexed temp table turns each probe into one B-tree lookup.
    atoms: list[str] = []
    for binding in plan.atoms:
        try:
            base, columns = catalog[binding.relation]
        except KeyError:
            raise QueryError(f"unknown relation {binding.relation!r}") from None
        if len(columns) != len(binding.arguments):
            raise QueryError(
                f"atom {binding.edge} has arity {len(binding.arguments)} but "
                f"relation {binding.relation!r} has arity {len(columns)}"
            )
        selects = []
        for variable in binding.variables:
            position = binding.arguments.index(variable)
            selects.append(f"{_quote(columns[position])} AS {_quote(variable)}")
        where = [
            f"{_quote(columns[i])} IS {_quote(columns[binding.arguments.index(v)])}"
            for i, v in enumerate(binding.arguments)
            if binding.arguments.index(v) != i
        ]
        select = f"SELECT DISTINCT {', '.join(selects)} FROM {base}"
        if where:
            select += f" WHERE {' AND '.join(where)}"
        atoms.append(table("atom", select))

    # -- bag materialisation ---------------------------------------------- #
    current: dict[int, str] = {}  # node → the table holding its latest state
    for bag in plan.bags:
        aliases = [f"c{j}" for j in range(len(bag.cover))]
        canonical: dict[str, str] = {}
        predicates: list[str] = []
        for alias, atom_index in zip(aliases, bag.cover):
            for variable in plan.atoms[atom_index].variables:
                first = canonical.get(variable)
                if first is None:
                    canonical[variable] = alias
                else:
                    predicates.append(
                        f"{alias}.{_quote(variable)} IS {first}.{_quote(variable)}"
                    )
        for atom_index in bag.filters:
            binding = plan.atoms[atom_index]
            shared = [v for v in binding.variables if v in canonical]
            index(atoms[atom_index], tuple(shared))
            inner = f"SELECT 1 FROM {atoms[atom_index]} AS e"
            if shared:
                inner += " WHERE " + " AND ".join(
                    f"e.{_quote(v)} IS {canonical[v]}.{_quote(v)}" for v in shared
                )
            predicates.append(f"EXISTS ({inner})")
        if bag.variables:
            select = ", ".join(
                f"{canonical[v]}.{_quote(v)} AS {_quote(v)}" for v in bag.variables
            )
        else:
            select = '1 AS "__unit__"'  # a 0-ary bag still has 0 or 1 rows
        sources = ", ".join(
            f"{atoms[atom_index]} AS {alias}"
            for alias, atom_index in zip(aliases, bag.cover)
        )
        select = f"SELECT DISTINCT {select} FROM {sources}"
        if predicates:
            select += f" WHERE {' AND '.join(predicates)}"
        current[bag.node] = table("bag", select)

    # -- the semijoin passes (full reduction, one derived table a step) ---- #
    # Each step probes its *source* per target row; an index on the join
    # columns makes that probe a seek instead of a scan.
    for op in plan.bottom_up + plan.top_down:
        target, source = current[op.target], current[op.source]
        index(source, op.on)
        inner = f"SELECT 1 FROM {source} AS S"
        if op.on:
            inner += " WHERE " + " AND ".join(
                f"S.{_quote(v)} IS T.{_quote(v)}" for v in op.on
            )
        current[op.target] = table(
            "red", f"SELECT T.* FROM {target} AS T WHERE EXISTS ({inner})"
        )

    # -- the join schedule, one temp table per step ------------------------- #
    # The plan's bottom-up join schedule (empty for BOOLEAN plans) is
    # compiled step by step rather than as one flat SELECT over all bags: a
    # flat join hands SQLite's planner an n-way join (hard-capped at 64
    # tables, and catastrophically ordered well before that on wide plans),
    # while the schedule keeps every intermediate bounded by Yannakakis'
    # guarantee.  Each step writes the plan's ``schema``: a node's last join
    # writes what its consumer reads, so a parent reads a child with
    # children as it is; only a leaf holding more than ``retain`` is read
    # through a SELECT DISTINCT.
    schemas = list(plan.node_variables)
    for op in plan.join_schedule:
        if isinstance(op, JoinOp):
            left, left_schema, right = current[op.target], schemas[op.target], current[op.source]
            shared = tuple(v for v in left_schema if v in op.retain)
            extras = tuple(v for v in op.retain if v not in left_schema)
            select = ", ".join(
                f"{'L' if v in left_schema else 'R'}.{_quote(v)} AS {_quote(v)}" for v in op.schema
            ) or '1 AS "__unit__"'
            if extras:
                if set(schemas[op.source]) == set(op.retain):
                    source = f"{right} AS R"
                else:
                    retained = ", ".join(_quote(v) for v in op.retain)
                    source = f"(SELECT DISTINCT {retained} FROM {right}) AS R"
                select = f"SELECT DISTINCT {select} FROM {left} AS L, {source}"
                if shared:
                    select += " WHERE " + " AND ".join(
                        f"L.{_quote(v)} IS R.{_quote(v)}" for v in shared
                    )
            else:
                # The child contributes no new columns — a pure semijoin.
                inner = f"SELECT 1 FROM {right} AS R"
                if shared:
                    inner += " WHERE " + " AND ".join(
                        f"R.{_quote(v)} IS L.{_quote(v)}" for v in shared
                    )
                select = f"SELECT DISTINCT {select} FROM {left} AS L WHERE EXISTS ({inner})"
            current[op.target], schemas[op.target] = table("join", select), op.schema
        else:  # ProjectOp: a root without children
            select = ", ".join(_quote(v) for v in op.attributes) or '1 AS "__unit__"'
            current[op.node] = table("proj", f"SELECT DISTINCT {select} FROM {current[op.node]}")

    # -- the final SELECT over the root's result ---------------------------- #
    # A BOOLEAN plan stops after the bottom-up pass: a surviving root tuple
    # decides the query, so only the reduced root bag is probed.
    if plan.mode is AnswerMode.BOOLEAN or not plan.output:
        answer, answer_kind = f"SELECT EXISTS (SELECT 1 FROM {current[0]})", "exists"
    elif plan.mode is AnswerMode.COUNT:
        # Every schedule step selects DISTINCT, so rows are unique already.
        answer, answer_kind = f"SELECT COUNT(*) FROM {current[0]}", "count"
    else:
        select = ", ".join(_quote(v) for v in plan.output)
        answer, answer_kind = f"SELECT {select} FROM {current[0]}", "rows"
    return SQLProgram(
        plan.mode, plan.output, tuple(steps.values()), answer, answer_kind, current[0]
    )


# --------------------------------------------------------------------------- #
# path-backed databases
# --------------------------------------------------------------------------- #
class SQLDatabase(Database):
    """A database living in a SQLite file, usable by *both* executors.

    The schema catalogue (table names and columns) is read once at
    construction; :meth:`get` materialises a relation into memory lazily, so
    the columnar arm — and the differential tests — accept the
    same handle, while the SQL executor opens :attr:`path` directly and
    never pulls base rows into Python.  The file is treated as read-only
    (only ``TEMP`` objects are ever created on its connections), and the
    process-backed serving layer ships the *path* as the payload token, so
    large files never cross the pipe.
    """

    def __init__(self, path) -> None:
        super().__init__()
        self.path = str(path)
        #: (data version, name) → the relation read at that version (:meth:`get`).
        self._relations: dict[tuple[int, str], Relation] = {}
        self._schemas: dict[str, tuple[str, ...]] = {}
        self._watch: sqlite3.Connection | None = None
        self._watch_lock = threading.Lock()
        faults.fire("sqlgen.connect", path=self.path)
        connection = sqlite3.connect(self.path)
        try:
            tables = connection.execute(
                "SELECT name FROM sqlite_master "
                "WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
            ).fetchall()
            for (name,) in tables:
                info = connection.execute(f"PRAGMA table_info({_quote(name)})").fetchall()
                self._schemas[name] = tuple(row[1] for row in info)
        finally:
            connection.close()

    def table_columns(self, name: str) -> tuple[str, ...]:
        """Column names of relation ``name`` as stored in the file."""
        try:
            return self._schemas[name]
        except KeyError:
            raise QueryError(f"unknown relation {name!r}") from None

    def add(self, relation: Relation) -> None:
        raise QueryError("a SQLDatabase is read-only; relations live in the file")

    def _data_version(self) -> int:
        """The file's ``PRAGMA data_version`` on a connection kept for it: the
        value moves whenever another connection commits to the file."""
        with self._watch_lock:
            if self._watch is None:
                self._watch = sqlite3.connect(self.path, check_same_thread=False)
                weakref.finalize(self, self._watch.close)
            return self._watch.execute("PRAGMA data_version").fetchone()[0]

    def get(self, name: str) -> Relation:
        """The relation as the file holds it now, materialised once per data
        version: the key is the version read before the rows, so a relation
        read at an old version is never served at a newer one."""
        version = self._data_version()
        relation = self._relations.get((version, name))
        if relation is not None:
            return relation
        columns = self.table_columns(name)
        select = ", ".join(_quote(c) for c in columns) or "1"
        connection = sqlite3.connect(self.path)
        try:
            rows = connection.execute(f"SELECT {select} FROM {_quote(name)}").fetchall()
        finally:
            connection.close()
        relation = Relation.from_trusted_rows(name, columns, frozenset(rows))
        # Copy on write, keeping only this version: a concurrent reader keeps
        # the dict it holds, and no lock is taken.
        relations = {key: kept for key, kept in self._relations.items() if key[0] == version}
        relations[version, name] = relation
        self._relations = relations
        return relation

    def __contains__(self, name: object) -> bool:
        return name in self._schemas

    def __len__(self) -> int:
        return len(self._schemas)

    def relation_names(self) -> list[str]:
        return sorted(self._schemas)


def dump_database(database: Database, path) -> SQLDatabase:
    """Write an in-memory database to a SQLite file; returns the path handle.

    Values must be JSON scalars (str/int/float/bool/None); booleans come
    back as 0/1 integers — equal under Python ``==``, which is what the
    differential guarantees are stated in.
    """
    connection = sqlite3.connect(str(path))
    try:
        for name in database.relation_names():
            relation = database.get(name)
            columns = ", ".join(_quote(c) for c in relation.schema)
            connection.execute(f"CREATE TABLE {_quote(name)} ({columns})")
            for row in relation.tuples:
                for value in row:
                    if not isinstance(value, (str, int, float, bool, type(None))):
                        raise QueryError(
                            f"relation {name!r} holds a non-scalar value of type "
                            f"{type(value).__name__}; only str/int/float/bool/None "
                            "can be dumped to SQLite"
                        )
            placeholders = ", ".join("?" for _ in relation.schema)
            connection.executemany(
                f"INSERT INTO {_quote(name)} VALUES ({placeholders})",
                [tuple(row) for row in relation.tuples],
            )
        connection.commit()
    finally:
        connection.close()
    return SQLDatabase(path)


# --------------------------------------------------------------------------- #
# per-database connection + interning state
# --------------------------------------------------------------------------- #
class SQLStore:
    """Persistent SQL-execution state of one database (the warm-cache unit).

    Holds the long-lived connection (an in-memory SQLite holding the
    interned base tables, or the opened :class:`SQLDatabase` file) and the
    registry of recycled temp tables (see the module docstring): name → row
    count in least-recently-used order, trimmed to :data:`_ROW_BUDGET` rows
    after each execution, emptied when an on-disk source changes.  Executions serialise
    on :attr:`lock` — SQLite connections are single-statement engines — so
    one store serves concurrent callers safely; keep one store per database
    to amortise bulk loading across a workload, exactly like
    :class:`~repro.query.columnar.ColumnStore`.

    Values intern into ``columns``, the database's
    :class:`~repro.query.columnar.ColumnStore` (a new one by default).
    """

    def __init__(self, database: Database, columns: ColumnStore | None = None) -> None:
        if columns is None:
            columns = ColumnStore(database)
        elif columns.database is not database:
            raise QueryError("the column store belongs to a different database")
        self.database = database
        self.columns = columns
        self.path = database.path if isinstance(database, SQLDatabase) else None
        self.retry = RetryPolicy()
        self.lock = threading.RLock()
        self._connection: sqlite3.Connection | None = None
        self._loaded: set[str] = set()
        #: Recycled temp objects, least recently used first: table → rows;
        #: an index is named ``<table>_ix<h>`` and counts no rows.
        self._tables: "OrderedDict[str, int]" = OrderedDict()
        self._rows = 0
        self._data_version: int | None = None

    @property
    def interned(self) -> bool:
        """True iff the source is an in-memory database loaded via interning."""
        return self.path is None

    def connection(self) -> sqlite3.Connection:
        """The store's connection, opened (with retry) on first use.

        ``isolation_level=None`` puts the connection in autocommit mode:
        every statement is its own atomic transaction, which is what makes
        per-statement retry safe — a failed statement changed nothing.  The
        one explicit transaction is a base relation's bulk load
        (:meth:`ensure_loaded`).
        """
        with self.lock:
            if self._connection is None:
                target = self.path if self.path is not None else ":memory:"

                def attempt():
                    faults.fire("sqlgen.connect", path=target)
                    return sqlite3.connect(
                        target, check_same_thread=False, isolation_level=None
                    )

                self._connection = self.retry.call(attempt, retry_on=(sqlite3.Error,))
                weakref.finalize(self, self._connection.close)
            return self._connection

    def close(self) -> None:
        """Close the connection, and with it every recycled and loaded table
        (idempotent; also run when the store is collected).  A later
        execution reconnects and starts cold."""
        with self.lock:
            connection, self._connection = self._connection, None
            self._tables.clear()
            self._loaded.clear()
            self._rows = 0
            if connection is not None:
                connection.close()

    def trim(self, budget: int = -1, pinned=()) -> None:
        """Drop least-recently-used recycled tables until at most ``budget``
        rows remain (by default: all of them), sparing the ``pinned`` names."""
        for name in [n for n in self._tables if "_ix" not in n and n not in pinned]:
            if self._rows <= budget:
                break
            self._connection.execute(f"DROP TABLE {name}")
            self._rows -= self._tables.pop(name)
        for name in [n for n in self._tables if n.partition("_ix")[0] not in self._tables]:
            del self._tables[name]  # SQLite dropped the index with its table

    def catalog_for(self, plan: QueryPlan) -> dict[str, tuple[str, tuple[str, ...]]]:
        """The base-table catalog :func:`compile_sql` needs for ``plan``."""
        catalog: dict[str, tuple[str, tuple[str, ...]]] = {}
        for binding in plan.atoms:
            if binding.relation in catalog:
                continue
            if self.path is not None:
                columns = self.database.table_columns(binding.relation)  # type: ignore[attr-defined]
                catalog[binding.relation] = (_quote(binding.relation), columns)
            else:
                base = self.database.get(binding.relation)
                catalog[binding.relation] = (
                    _quote(f"base_{binding.relation}"),
                    tuple(f"c{i}" for i in range(len(base.schema))),
                )
        return catalog

    def source_fingerprint(self, plan: QueryPlan) -> tuple:
        """Identity of the generated SQL's source side (for program caching):
        the catalog itself — base table and columns, hence arity, per relation."""
        return tuple(sorted(self.catalog_for(plan).items()))

    def _version(self, executor: "SQLExecutor") -> int:
        """The on-disk file's ``PRAGMA data_version`` on the store's connection."""
        return executor._exec(self.connection(), "PRAGMA data_version").fetchone()[0]

    def ensure_loaded(self, plan: QueryPlan, executor: "SQLExecutor") -> None:
        """Bulk-load (once) every base relation an in-memory plan touches; for
        an on-disk source, drop what was recycled from a since-changed file.

        Each relation loads in one transaction, so a load cut short (an
        interrupt, a failed statement) rolls back whole: no half-filled base
        table is left behind to make the next attempt's ``CREATE`` fail."""
        connection = self.connection()
        if self.path is not None:
            version = self._version(executor)
            if version != self._data_version:  # another connection committed
                self._data_version = version
                self.trim()
            return
        for binding in plan.atoms:
            name = binding.relation
            if name in self._loaded:
                continue
            base = self.database.get(name)
            arity = len(base.schema)
            if arity == 0:
                raise QueryError("the sql executor does not support 0-ary relations")
            table = _quote(f"base_{name}")
            columns = ", ".join(f"c{i} INTEGER" for i in range(arity))
            rows = list(zip(*map(self.columns.intern, zip(*base.tuples))))
            connection.execute("BEGIN")
            try:
                executor._exec(connection, f"CREATE TABLE {table} ({columns})")
                connection.executemany(
                    f"INSERT INTO {table} VALUES ({', '.join('?' * arity)})", rows
                )
                connection.execute("COMMIT")
            except BaseException:
                if connection.in_transaction:  # an interrupt rolls back by itself
                    connection.execute("ROLLBACK")
                raise
            self._loaded.add(name)


class _InterruptGuard:
    """The SQL arm's actuator for one execution's :class:`~repro.deadline.Deadline`.

    Entered with a deadline, the guard installs a SQLite progress handler
    that polls the deadline every ``_PROGRESS_STEPS`` virtual-machine
    instructions and aborts the running statement the moment it fires; the
    statement's ``OperationalError: interrupted`` is translated to
    :class:`~repro.exceptions.TimeoutExceeded` by the executor.  ``check()``
    at step boundaries catches a signal that lands *between* statements.
    Without a deadline the guard installs nothing.
    """

    __slots__ = ("connection", "deadline", "reason")

    def __init__(self, connection, deadline: Deadline | None = None) -> None:
        self.connection = connection
        self.deadline = deadline
        #: Why the deadline fired (``None`` while it has not).
        self.reason: str | None = None

    @property
    def fired(self) -> bool:
        return self.reason is not None

    def _poll(self) -> bool:
        if self.reason is None and self.deadline is not None:
            reason = self.deadline.reason()
            if reason is not None:
                self.reason = f"query execution {reason}"
        return self.reason is not None

    def check(self) -> None:
        """Raise if cancellation already fired (or fires right now)."""
        if self._poll():
            raise TimeoutExceeded(self.reason)

    def __enter__(self) -> "_InterruptGuard":
        if self.deadline is not None:
            self.connection.set_progress_handler(self._poll, _PROGRESS_STEPS)
        return self

    def stop(self) -> None:
        """Remove the progress handler; no interrupt lands after this returns."""
        if self.deadline is not None:
            self.connection.set_progress_handler(None, 0)

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class SQLExecutor:
    """Runs compiled plans over a :class:`SQLStore` — the pushdown twin of
    :class:`~repro.query.columnar.PlanExecutor`, same result shape, same
    cancellation semantics."""

    def __init__(self, store: SQLStore, deadline: Deadline | None = None) -> None:
        self.store = store
        self.deadline = deadline

    # ------------------------------------------------------------------ #
    # statement execution with fault points and retry
    # ------------------------------------------------------------------ #
    def _exec(self, connection, sql: str, guard: _InterruptGuard | None = None):
        def attempt():
            if guard is not None:
                guard.check()
            faults.fire("sqlgen.exec", statement=sql.split(None, 1)[0].lower())
            try:
                return connection.execute(sql)
            except sqlite3.Error:
                if guard is not None and guard.fired:
                    # The progress handler aborted this statement: surface the
                    # cancellation, not the carrier error, and never retry.
                    raise TimeoutExceeded(guard.reason) from None
                raise

        return self.store.retry.call(attempt, retry_on=(sqlite3.Error,))

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #
    def execute(self, plan: QueryPlan, program: SQLProgram | None = None) -> ExecutionResult:
        """Execute ``plan`` (compiling it to SQL unless ``program`` is given).

        On an on-disk source the file's data version is read again after the
        run: if another connection committed meanwhile, the run's statements
        may have read two states of the file, so it runs again, and
        :meth:`SQLStore.ensure_loaded` first drops the recycled tables.
        """
        store = self.store
        with store.lock:
            connection = store.connection()
            while True:
                store.ensure_loaded(plan, self)
                if program is None:
                    program = compile_sql(plan, store.catalog_for(plan))
                result = self._guarded_run(plan, program, connection)
                if store.path is None or store._version(self) == store._data_version:
                    return result

    def _guarded_run(self, plan: QueryPlan, program: SQLProgram, connection) -> ExecutionResult:
        """:meth:`_run` under the deadline's interrupt guard, then the row budget."""
        store = self.store
        guard = _InterruptGuard(connection, self.deadline)
        try:
            with guard:
                try:
                    return self._run(plan, program, connection, guard)
                except sqlite3.Error:
                    # An interrupt can also land inside a fetch (result
                    # rows are produced lazily); surface it uniformly.
                    if guard.fired:
                        raise TimeoutExceeded(guard.reason) from None
                    raise
        finally:
            if store._rows > _ROW_BUDGET:
                store.trim(_ROW_BUDGET, {name for _, name, _ in program.steps})

    def _run(
        self, plan: QueryPlan, program: SQLProgram, connection, guard: _InterruptGuard
    ) -> ExecutionResult:
        stats, tables = ExecutionStatistics(), self.store._tables
        for kind, name, sql in program.steps:
            guard.check()
            rows = tables.get(name)
            counter = _COUNTERS.get((kind, rows is not None))
            if counter is not None:
                setattr(stats, counter, getattr(stats, counter) + 1)
            if rows is not None:
                tables.move_to_end(name)
            else:
                self._exec(connection, sql, guard)
                rows = 0
                if kind != "index":
                    try:
                        count = self._exec(connection, f"SELECT COUNT(*) FROM {name}", guard)
                        rows = count.fetchone()[0]
                    except BaseException:
                        guard.stop()  # an interrupt must not land on the cleanup
                        connection.execute(f"DROP TABLE {name}")  # exists ⇔ registered
                        raise
                tables[name] = rows
                self.store._rows += rows
            if rows == 0 and kind != "index":
                # Any empty table — recycled or new — empties the answer.
                stats.early_exit = True
                return ExecutionResult.of(plan, stats, 0)

        # Every step is registered and none is empty, so the root's row count
        # is in the registry: the scalar answers need no statement.
        if plan.mode is not AnswerMode.ENUMERATE:
            return ExecutionResult.of(plan, stats, tables[program.root])
        tuples = frozenset({()})
        if plan.output:
            fetched = self._exec(connection, program.answer, guard).fetchall()
            guard.check()
            stats.rows_materialised += len(fetched)
            if not self.store.interned:
                tuples = frozenset(fetched)
            else:
                # Decode every value in one pass, then regroup them into rows
                # of the output's width: no per-row map or tuple call.
                values = map(self.store.columns._values.__getitem__, chain.from_iterable(fetched))
                tuples = frozenset(zip(*[values] * len(plan.output)))
        answers = Relation.from_trusted_rows("answer", plan.output, tuples)
        return ExecutionResult.of(plan, stats, tables[program.root], answers)

