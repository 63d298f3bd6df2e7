"""The durable decomposition catalog: a SQLite-backed L2 cache with provenance.

Every in-memory cache of the library dies with the process; the catalog is
the tier below them — a zero-config local SQLite file (WAL mode, stdlib
:mod:`sqlite3`) mapping ``namespace × canonical_hash × k × configuration``
to a serialized certificate plus full provenance:

* the producing **algorithm** and its resolved registry configuration,
* a **search-statistics snapshot** and the decompose-stage wall time,
* a UTC **timestamp** and the library **code version**,
* the **validation status** recorded at store time,
* the instance itself in **HIF** form (:func:`repro.hypergraph.io.to_hif`),
  so a row can be audited standalone by any HIF-aware tool.

Design decisions that make the catalog safe to share:

* **Validate on load.**  A row is only trusted after its certificate has
  been decoded over the *caller's* hypergraph and has passed the independent
  ``validate_hd``/``validate_ghd`` oracle.  Rows failing validation (a
  tampered or torn write) are deleted and counted as ``validate_rejects`` —
  the caller simply recomputes.
* **Exactly-once rows.**  Stores go through ``INSERT OR IGNORE`` on the
  primary key, so many processes racing to store one key agree on a single
  surviving row without any cross-process locking.
* **Stored on return.**  :meth:`DecompositionCatalog.put` validates,
  serializes and inserts the row in the caller's thread, through the same
  retry and circuit gateway as every other operation, so the row is
  committed (or, while degraded, in the shadow) when ``put`` returns.
  Because rows are only ever *decided* answers and inserts are idempotent,
  a failed store costs recomputation, never correctness: an unexpected
  exception while storing loses that one write (logged, counted as
  ``lost_writes``) and never reaches the caller.
* **Retry, then break the circuit — degradation is temporary.**  Every
  SQLite operation runs under a :class:`~repro.faults.RetryPolicy`
  (exponential backoff + jitter), so transient errors heal invisibly.
  Persistent failure opens a :class:`~repro.faults.CircuitBreaker`: the
  file connection is dropped and the catalog serves from a private
  in-memory *shadow* database (``stats().memory_fallback`` is True while
  degraded — serving keeps working, merely without durability).  After
  ``reset_interval`` seconds each operation first attempts a half-open
  probe; a successful probe **re-attaches** the file, replays the shadow's
  rows into it (``reattach_replays``) and closes the circuit —
  ``circuit_reattaches`` proves the recovery.  :meth:`probe` forces the
  attempt without waiting for the cooldown.

Fault points (see :mod:`repro.faults`): ``catalog.open``, ``catalog.probe``
and ``catalog.<op>`` for every SQLite operation (``get``, ``put``,
``delete``, ``query``, ``evict``, ``vacuum``), plus ``catalog.store``
inside the guard around each store — the chaos suite drives the whole
retry → break → probe → re-attach ladder through them.

Namespaces isolate tenants sharing one file: a catalog handle is bound to
one namespace; rows of other namespaces are invisible to `get`/`put` and
are managed through the CLI (``python -m repro.catalog``).
"""

from __future__ import annotations

import json
import logging
import sqlite3
import threading
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

from .. import faults
from ..core.base import SearchStatistics
from ..core.codec import (
    class_for_kind,
    decomposition_from_json,
    decomposition_to_dict,
    kind_of,
    statistics_from_json,
    statistics_to_json,
)
from ..counters import Counters
from ..decomp.decomposition import (
    Decomposition,
    DecompositionNode,
    HypertreeDecomposition,
)
from ..decomp.validation import validate_ghd, validate_hd
from ..exceptions import ReproError
from ..faults import CircuitBreaker, RetryPolicy
from ..hypergraph import Hypergraph
from ..hypergraph.io import from_hif, to_hif

__all__ = ["CatalogStats", "CatalogRecord", "DecompositionCatalog", "configuration_text"]

logger = logging.getLogger("repro.catalog")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    namespace      TEXT    NOT NULL,
    canonical_hash TEXT    NOT NULL,
    k              INTEGER NOT NULL,
    configuration  TEXT    NOT NULL,
    algorithm      TEXT    NOT NULL,
    success        INTEGER NOT NULL,
    kind           TEXT    NOT NULL,
    certificate    TEXT,
    hypergraph     TEXT    NOT NULL,
    statistics     TEXT    NOT NULL,
    wall_seconds   REAL    NOT NULL,
    created_at     TEXT    NOT NULL,
    code_version   TEXT    NOT NULL,
    validated      INTEGER NOT NULL,
    PRIMARY KEY (namespace, canonical_hash, k, configuration)
)
"""

#: Number of columns in ``entries`` (the re-attach replay binds them all).
_NUM_COLUMNS = 14


def _stable(value):
    """Recursively order-normalise a configuration value for stable text."""
    if isinstance(value, frozenset):
        return ("frozenset", sorted(_stable(item) for item in value))
    if isinstance(value, tuple):
        return ("tuple", [_stable(item) for item in value])
    return ("atom", repr(value))


def configuration_text(configuration: tuple) -> str:
    """A deterministic text rendering of an algorithm-configuration key.

    Configuration keys (:meth:`repro.core.base.Decomposer.cache_key`) are
    nested tuples of primitives, possibly containing frozensets whose
    ``repr`` order is not deterministic — so the rendering sorts set
    contents before serialising.  The text is an opaque identity column,
    not meant to be decoded.
    """
    return json.dumps(_stable(configuration), sort_keys=True)


def _worst_circuit_state(one: str, other: str) -> str:
    """Merged handles report the worst of their states: closed < half_open < open."""
    severity = (CircuitBreaker.CLOSED, CircuitBreaker.HALF_OPEN, CircuitBreaker.OPEN)
    return max(one, other, key=severity.index)


@dataclass
class CatalogStats(Counters):
    """Traffic and resilience counters of one catalog handle (not persisted).

    ``memory_fallback`` is True *while* the circuit is open and the handle
    serves from its in-memory shadow; it flips back to False on re-attach.
    ``retries`` counts healed transient errors, ``circuit_*`` the breaker's
    state transitions, ``reattach_replays`` shadow rows replayed into the
    file on recovery, and ``lost_writes`` the stores dropped on an
    unexpected exception.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    duplicate_stores: int = 0
    validate_rejects: int = 0
    errors: int = 0
    retries: int = 0
    lost_writes: int = 0
    reattach_replays: int = 0
    circuit_opens: int = 0
    circuit_probes: int = 0
    circuit_reattaches: int = 0
    circuit_state: str = field(
        default=CircuitBreaker.CLOSED, metadata={"merge": _worst_circuit_state}
    )
    memory_fallback: bool = False


@dataclass
class CatalogRecord:
    """One catalog row, decoded for the engine or the CLI.

    ``root`` is the decomposition tree of the stored (reduced) instance —
    ``None`` for negative entries — and ``kind`` the decomposition class it
    re-validates as.  The remaining fields are provenance.
    """

    namespace: str
    canonical_hash: str
    k: int
    algorithm: str
    success: bool
    root: DecompositionNode | None
    kind: type
    stats: SearchStatistics
    hypergraph: Hypergraph
    wall_seconds: float
    created_at: str
    code_version: str
    validated: bool
    configuration: str = ""


class DecompositionCatalog:
    """A durable, namespaced store of decided decomposition outcomes.

    Parameters
    ----------
    path:
        The SQLite file (created on demand); parent directories must exist.
    namespace:
        The tenant namespace this handle reads and writes (default
        ``"default"``).  Other namespaces in the same file are invisible.
    reset_interval:
        The circuit breaker's cooldown before a half-open re-attach probe;
        it opens after 3 consecutive failures.

    The handle is thread-safe: one connection guarded by a lock (SQLite WAL
    handles cross-process concurrency).  A row is committed when
    :meth:`put` returns.  Use as a context manager or call :meth:`close` to
    release the file.
    """

    def __init__(
        self,
        path: str | Path,
        namespace: str = "default",
        *,
        reset_interval: float = 1.0,
    ) -> None:
        if not namespace or any(ch.isspace() for ch in namespace):
            raise ReproError(f"invalid catalog namespace {namespace!r}")
        self.path = Path(path)
        self.namespace = namespace
        # Wrapped around every SQLite operation: 2 retries, 10 ms base
        # backoff with jitter.
        self._retry = RetryPolicy()
        self._breaker = CircuitBreaker(reset_interval=reset_interval)
        self._lock = threading.Lock()
        self._stats = CatalogStats()
        self._closed = False
        self._attached = False
        self._connection = self._open()

    # ------------------------------------------------------------------ #
    # connection management, circuit breaking, re-attach
    # ------------------------------------------------------------------ #
    def _connect_file(self) -> sqlite3.Connection:
        """Open (and initialise) the durable file; raises on failure."""
        faults.fire("catalog.open")
        connection = sqlite3.connect(str(self.path), check_same_thread=False)
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(_SCHEMA)
            connection.commit()
        except BaseException:
            connection.close()
            raise
        return connection

    def _open(self) -> sqlite3.Connection:
        try:
            connection = self._connect_file()
        except (sqlite3.Error, OSError) as exc:
            self._breaker.trip()
            return self._shadow_connection(f"cannot open catalog {self.path}: {exc}")
        self._attached = True
        return connection

    def _shadow_connection(self, reason: str) -> sqlite3.Connection:
        """Build the in-memory shadow the handle serves from while degraded."""
        logger.warning(
            "%s — circuit open, continuing with a memory-only catalog "
            "(no durability) until the file re-attaches",
            reason,
        )
        self._stats.memory_fallback = True
        self._stats.errors += 1
        connection = sqlite3.connect(":memory:", check_same_thread=False)
        connection.execute(_SCHEMA)
        connection.commit()
        return connection

    def _degrade_locked(self, label: str, exc: BaseException) -> None:
        """Drop the file connection and switch to the shadow (lock held)."""
        try:
            self._connection.close()
        except sqlite3.Error:
            pass
        self._attached = False
        self._connection = self._shadow_connection(f"catalog {label} failed: {exc}")

    def _probe_locked(self, force: bool = False) -> bool:
        """Attempt a half-open re-attach if the breaker allows one (lock held).

        On success the shadow's rows are replayed into the file (idempotent
        ``INSERT OR IGNORE``), the shadow is discarded, and the circuit
        closes.  Returns whether the handle is attached afterwards.
        """
        if self._attached:
            return True
        if not self._breaker.allow(force_probe=force):
            return False
        try:
            faults.fire("catalog.probe")
            connection = self._connect_file()
        except (sqlite3.Error, OSError) as exc:
            self._breaker.record_failure()
            logger.debug("catalog re-attach probe failed: %s", exc)
            return False
        replayed = 0
        try:
            placeholders = ", ".join("?" * _NUM_COLUMNS)
            for row in self._connection.execute("SELECT * FROM entries"):
                cursor = connection.execute(
                    f"INSERT OR IGNORE INTO entries VALUES ({placeholders})", row
                )
                replayed += cursor.rowcount
            connection.commit()
        except sqlite3.Error as exc:
            self._breaker.record_failure()
            connection.close()
            logger.debug("catalog re-attach replay failed: %s", exc)
            return False
        try:
            self._connection.close()
        except sqlite3.Error:
            pass
        self._connection = connection
        self._attached = True
        self._breaker.record_success()
        self._stats.memory_fallback = False
        self._stats.reattach_replays += replayed
        logger.info(
            "catalog re-attached to %s (%d shadow row(s) replayed)",
            self.path,
            replayed,
        )
        return True

    def probe(self) -> bool:
        """Force a re-attach attempt now; True iff the file is attached after.

        Bypasses the breaker's cooldown — operational tooling (and the chaos
        harness) calls this to confirm recovery instead of waiting for the
        next organic operation to probe.
        """
        with self._lock:
            if self._closed:
                return False
            return self._probe_locked(force=True)

    def _run(self, label: str, fn, default=None):
        """Run ``fn(connection)`` with retry, circuit breaking and degradation.

        While attached: each attempt fires the ``catalog.<label>`` fault
        point and is retried per the policy; exhausted retries (or the
        breaker opening) degrade the handle to its shadow, on which the
        operation is then served best-effort.  While degraded: a cooldown-
        gated re-attach probe runs first, then the operation hits whichever
        connection is now active.
        """
        with self._lock:
            if self._closed:
                return default
            if not self._attached:
                self._probe_locked()
            if self._attached:
                delays = self._retry.delays()
                while True:
                    try:
                        faults.fire(f"catalog.{label}")
                        result = fn(self._connection)
                        self._breaker.record_success()
                        return result
                    except (sqlite3.Error, OSError) as exc:
                        self._stats.errors += 1
                        try:
                            self._connection.rollback()
                        except sqlite3.Error:
                            pass
                        opened = self._breaker.record_failure()
                        if opened:
                            self._degrade_locked(label, exc)
                            break
                        try:
                            delay = next(delays)
                        except StopIteration:
                            self._breaker.trip()
                            self._degrade_locked(label, exc)
                            break
                        self._stats.retries += 1
                        time.sleep(delay)
            try:
                return fn(self._connection)
            except sqlite3.Error:
                self._stats.errors += 1
                return default

    def close(self) -> None:
        """Close the underlying connection."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._connection.close()

    def __enter__(self) -> "DecompositionCatalog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the L2 protocol: get / put / flush
    # ------------------------------------------------------------------ #
    def get(
        self, hypergraph: Hypergraph, k: int, configuration: tuple
    ) -> CatalogRecord | None:
        """Look up a decided outcome for ``(hypergraph, k, configuration)``.

        Positive entries are decoded over the *given* hypergraph and must
        pass the independent ``validate_hd``/``validate_ghd`` oracle before
        they are returned; a row failing decode or validation is deleted,
        counted as a ``validate_reject`` and reported as a miss, so the
        caller transparently recomputes (and re-stores) it.
        """
        config_text = configuration_text(configuration)
        canonical_hash = hypergraph.canonical_hash()
        row = self._fetch_row(canonical_hash, k, config_text)
        if row is None:
            with self._lock:
                self._stats.misses += 1
            return None
        record = self._decode_row(row, hypergraph)
        with self._lock:
            if record is None:
                self._stats.validate_rejects += 1
                self._stats.misses += 1
            else:
                self._stats.hits += 1
        if record is None:
            self._delete_row(canonical_hash, k, config_text)
        return record

    def put(
        self,
        hypergraph: Hypergraph,
        k: int,
        configuration: tuple,
        *,
        algorithm: str,
        success: bool,
        decomposition: Decomposition | None,
        stats: SearchStatistics | None = None,
        wall_seconds: float = 0.0,
    ) -> None:
        """Persist a decided outcome; the row is committed when this returns.

        ``decomposition`` must be hosted on ``hypergraph`` (the engine passes
        the *reduced* instance and its certificate); negative outcomes pass
        ``success=False`` with ``decomposition=None``.  Timed-out or
        cancelled runs must never reach the catalog — the engine enforces
        that, mirroring its L1 policy.  An unexpected exception while
        storing loses this one write (``lost_writes``) and is not raised.
        """
        try:
            faults.fire("catalog.store")
            self._write(
                hypergraph, k, configuration, algorithm, success, decomposition, stats, wall_seconds
            )
        except Exception:
            logger.warning(
                "catalog store failed unexpectedly for k=%d; dropping this write",
                k,
                exc_info=True,
            )
            with self._lock:
                self._stats.lost_writes += 1
                self._stats.errors += 1

    def flush(self) -> bool:
        """Return True: every :meth:`put` is committed when it returns."""
        return True

    def stats(self) -> CatalogStats:
        """A snapshot of this handle's traffic and resilience counters."""
        with self._lock:
            snapshot = replace(self._stats)
        circuit = self._breaker.as_dict()
        snapshot.circuit_state = circuit["state"]
        snapshot.circuit_opens = circuit["opens"]
        snapshot.circuit_probes = circuit["probes"]
        snapshot.circuit_reattaches = circuit["reattaches"]
        return snapshot

    # ------------------------------------------------------------------ #
    # enumeration / maintenance (the CLI's surface)
    # ------------------------------------------------------------------ #
    def namespaces(self) -> list[str]:
        """All namespaces present in the file, sorted."""
        rows = self._run(
            "query",
            lambda connection: connection.execute(
                "SELECT DISTINCT namespace FROM entries ORDER BY namespace"
            ).fetchall(),
        )
        return [row[0] for row in rows] if rows is not None else []

    def entries(
        self,
        namespace: str | None = None,
        *,
        hash_prefix: str = "",
        k: int | None = None,
    ) -> list[CatalogRecord]:
        """Decode matching rows (``namespace=None`` means this handle's own).

        Rows whose certificate fails validation against their *stored*
        hypergraph are skipped (and counted) — enumeration never returns an
        untrusted record.
        """
        clauses, parameters = self._filters(namespace, hash_prefix, k)
        sql = (
            "SELECT namespace, canonical_hash, k, configuration, algorithm, success, "
            "kind, certificate, hypergraph, statistics, wall_seconds, created_at, "
            f"code_version, validated FROM entries WHERE {' AND '.join(clauses)} "
            "ORDER BY created_at, canonical_hash, k"
        )
        rows = self._run(
            "query",
            lambda connection: connection.execute(sql, tuple(parameters)).fetchall(),
        )
        records = []
        for row in rows or []:
            record = self._decode_row(row, host=None)
            if record is None:
                with self._lock:
                    self._stats.validate_rejects += 1
                continue
            records.append(record)
        return records

    def evict(
        self,
        namespace: str | None = None,
        *,
        hash_prefix: str = "",
        k: int | None = None,
    ) -> int:
        """Delete matching rows; returns the number removed."""
        clauses, parameters = self._filters(namespace, hash_prefix, k)
        sql = f"DELETE FROM entries WHERE {' AND '.join(clauses)}"

        def delete(connection):
            cursor = connection.execute(sql, tuple(parameters))
            connection.commit()
            return cursor.rowcount

        removed = self._run("evict", delete, default=0)
        return int(removed)

    def _filters(self, namespace, hash_prefix, k) -> tuple[list, list]:
        clauses = ["namespace = ?"]
        parameters: list = [namespace if namespace is not None else self.namespace]
        if hash_prefix:
            clauses.append("canonical_hash LIKE ?")
            parameters.append(hash_prefix + "%")
        if k is not None:
            clauses.append("k = ?")
            parameters.append(k)
        return clauses, parameters

    def vacuum(self) -> None:
        """Reclaim the space of evicted rows (SQLite ``VACUUM``)."""
        self._run("vacuum", lambda connection: connection.execute("VACUUM"))

    def __len__(self) -> int:
        rows = self._run(
            "query",
            lambda connection: connection.execute(
                "SELECT COUNT(*) FROM entries WHERE namespace = ?", (self.namespace,)
            ).fetchall(),
        )
        return int(rows[0][0]) if rows else 0

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _fetch_row(self, canonical_hash: str, k: int, config_text: str):
        sql = (
            "SELECT namespace, canonical_hash, k, configuration, algorithm, success, "
            "kind, certificate, hypergraph, statistics, wall_seconds, created_at, "
            "code_version, validated FROM entries WHERE namespace = ? AND "
            "canonical_hash = ? AND k = ? AND configuration = ?"
        )
        parameters = (self.namespace, canonical_hash, k, config_text)
        rows = self._run(
            "get", lambda connection: connection.execute(sql, parameters).fetchall()
        )
        return rows[0] if rows else None

    def _delete_row(self, canonical_hash: str, k: int, config_text: str) -> None:
        def delete(connection):
            connection.execute(
                "DELETE FROM entries WHERE namespace = ? AND canonical_hash = ? "
                "AND k = ? AND configuration = ?",
                (self.namespace, canonical_hash, k, config_text),
            )
            connection.commit()

        self._run("delete", delete)

    def _decode_row(self, row, host: Hypergraph | None) -> CatalogRecord | None:
        """Decode and (for positive entries) validate one row.

        ``host`` is the caller's hypergraph for `get` lookups; for
        enumeration it is ``None`` and the stored HIF instance is used.
        Any decode or validation failure yields ``None`` — the row is not
        to be trusted.
        """
        (
            namespace,
            canonical_hash,
            k,
            configuration,
            algorithm,
            success,
            kind_name,
            certificate,
            hif_text,
            stats_text,
            wall_seconds,
            created_at,
            code_version,
            validated,
        ) = row
        try:
            hypergraph = host if host is not None else from_hif(hif_text)
            stats = statistics_from_json(stats_text)
            root: DecompositionNode | None = None
            kind: type = HypertreeDecomposition
            if success:
                decomposition = decomposition_from_json(hypergraph, certificate)
                if decomposition.kind != kind_name:
                    return None
                if isinstance(decomposition, HypertreeDecomposition):
                    validate_hd(decomposition)
                else:
                    validate_ghd(decomposition)
                if decomposition.width > k:
                    return None
                root = decomposition.root
                kind = type(decomposition)
            else:
                kind = class_for_kind(kind_name)
        except (ReproError, ValueError, TypeError, KeyError):
            return None
        return CatalogRecord(
            namespace=namespace,
            canonical_hash=canonical_hash,
            k=int(k),
            algorithm=algorithm,
            success=bool(success),
            root=root,
            kind=kind,
            stats=stats,
            hypergraph=hypergraph,
            wall_seconds=float(wall_seconds),
            created_at=created_at,
            code_version=code_version,
            validated=bool(validated),
            configuration=configuration,
        )

    def _write(
        self,
        hypergraph: Hypergraph,
        k: int,
        configuration: tuple,
        algorithm: str,
        success: bool,
        decomposition: Decomposition | None,
        stats: SearchStatistics | None,
        wall_seconds: float,
    ) -> None:
        from .. import __version__

        canonical_hash = hypergraph.canonical_hash()
        validated = False
        certificate = None
        kind_name = kind_of(HypertreeDecomposition)
        if decomposition is not None:
            # Validate before persisting: a row in the catalog is a
            # *trusted-at-store-time* certificate.
            try:
                if isinstance(decomposition, HypertreeDecomposition):
                    validate_hd(decomposition)
                else:
                    validate_ghd(decomposition)
            except ReproError:
                logger.warning(
                    "refusing to store an invalid certificate for %s (k=%d)",
                    canonical_hash[:12],
                    k,
                )
                with self._lock:
                    self._stats.errors += 1
                return
            validated = True
            certificate = json.dumps(decomposition_to_dict(decomposition), sort_keys=True)
            kind_name = decomposition.kind

        row = (
            self.namespace,
            canonical_hash,
            k,
            configuration_text(configuration),
            algorithm,
            int(success),
            kind_name,
            certificate,
            json.dumps(to_hif(hypergraph), sort_keys=True),
            statistics_to_json(stats if stats is not None else SearchStatistics()),
            wall_seconds,
            datetime.now(timezone.utc).isoformat(timespec="seconds"),
            __version__,
            int(validated),
        )

        def insert(connection):
            cursor = connection.execute(
                "INSERT OR IGNORE INTO entries (namespace, canonical_hash, k, "
                "configuration, algorithm, success, kind, certificate, hypergraph, "
                "statistics, wall_seconds, created_at, code_version, validated) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                row,
            )
            connection.commit()
            return cursor.rowcount

        rowcount = self._run("put", insert)
        with self._lock:
            if rowcount is None:
                pass  # even the shadow failed; already counted as an error
            elif rowcount:
                self._stats.stores += 1
            else:
                # Another handle/process stored the key first: the
                # INSERT OR IGNORE race resolution, not an error.
                self._stats.duplicate_stores += 1
