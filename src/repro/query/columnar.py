"""Columnar execution of compiled query plans.

The in-memory execution arm: a :class:`PlanExecutor` runs a
:class:`~repro.query.plan.QueryPlan` over dictionary-encoded, column-major
relations (the tuple-at-a-time oracle it is tested against lives in
``tests/oracles/eager.py``).

Design
------
* **Dictionary encoding** — a :class:`ColumnStore` owns one process-wide
  value dictionary per database (the SQL arm's store shares it): every
  attribute value is interned to a small integer code, so all joins,
  semijoins and deduplication work on integers (and code equality is value
  equality across relations).  Base relations are interned a column at a
  time (:meth:`ColumnStore.intern`) and checked for repeated variables on
  codes; being sets, they need no dedupe.
* **Column-major storage** — a :class:`ColumnarRelation` stores one code
  list per attribute.  Operators slice out exactly the key columns they
  need; no full-width tuples are rebuilt per operator.
* **Shared key indexes** — one index per (relation, attribute subset) is
  cached on the relation.  Yannakakis repeatedly touches the same (node,
  shared-variable) pairs — the bottom-up semijoin, the top-down semijoin
  and the final join all probe the same keys — so each index is built once
  and reused; :class:`ExecutionStatistics` counts the reuse.
* **Selection masks instead of rebuilds** — semijoins never copy a bag;
  they operate on a packed-int ``alive`` bitmask (bit ``i`` = row ``i``
  survives).  A semijoin gathers the rows of the *dead* key groups into one
  bitmask and clears them from the alive set with one ``&``; the surviving
  row count is a single ``int.bit_count()``.  The cached indexes stay valid
  across the passes (dead rows are skipped on probe).
* **Packed columns, two kernel arms** — code columns are ``array('q')``
  buffers.  With numpy, an operator whose keys are *packable* (non-negative
  codes, key span below ``2**62``) folds its key columns into one int64 per
  row (``key = key * base_j + col_j``, ``base_j = max(col_j) + 1``) and runs
  on zero-copy ``frombuffer`` views with no per-row Python: the index is a
  **sorted key index** (distinct keys ascending, group starts and counts,
  the stable argsort grouping the rows), the join is ``searchsorted`` +
  ``repeat``/offset expansion, the semijoin ``reduceat`` over the source's
  index and ``isin`` against the target's, the projection dedupe a 1-D
  ``sort`` + neighbour compare.  Any other operator runs the pure-Python
  kernel on a hash index (key → row ids, key → row bitmask).  Both arms
  return the same rows, ``_join`` in the same order (left-major, ascending
  right row id), and the alive set is one int bitmask on both.
* **Early exit** — ``BOOLEAN`` plans stop at the first empty bag and skip
  the top-down pass and join stage entirely; all modes short-circuit when a
  bag or a reduced node comes out empty.

Base-relation encodings (per atom binding pattern), bag tables and plan
outcomes persist in the :class:`ColumnStore` across queries, which is what
makes warm workload evaluation cheap: a new plan over known bags runs only
its semijoin passes and joins, and a repeated plan runs no operator and
decodes nothing.  An ``ENUMERATE`` outcome keeps its answer as an immutable
:class:`~repro.query.relation.Relation`, decoded once when the plan first
runs, and every repeat returns that same object.
"""

from __future__ import annotations

import operator
import threading
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

from ..counters import Counters
from ..deadline import Deadline
from ..exceptions import QueryError
from ..lru import SharedLRU
from .database import Database
from .plan import AnswerMode, AtomBinding, JoinOp, QueryPlan
from .relation import Relation

try:  # Optional fast path; CI images ship without numpy.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

__all__ = [
    "ColumnarRelation",
    "ColumnStore",
    "ExecutionStatistics",
    "ExecutionResult",
    "PlanExecutor",
]

#: Typecode of the packed code columns: signed 64-bit, matching numpy int64
#: so ``np.frombuffer`` can view a column without copying.
_CODE_TYPECODE = "q"

#: byte value (0..255) → the 8 selector bytes of its bits, little-endian.
#: Turns an alive bitmask into per-row 0/1 selector bytes for
#: :func:`itertools.compress` in O(nrows/8) table lookups.
_BYTE_SELECTORS = tuple(
    bytes((byte >> bit) & 1 for bit in range(8)) for byte in range(256)
)

#: Rows per chunk when building key→row-bitmask tables; bounds the size of
#: the chunk-local ints so the build stays near-linear in the row count.
_MASK_CHUNK = 4096

#: Rows processed between two deadline polls in the hot join and semijoin
#: loops — the same periodic-check idea the decomposition searches use
#: (SearchContext), sized so the poll overhead stays invisible while an
#: abort still lands within a few thousand rows of work.  A vectorised block
#: (the packed join, the cartesian product) counts as ``16 * _CHECK_STRIDE``
#: rows.
_CHECK_STRIDE = 4096


def _mask_to_selectors(mask: int, nrows: int) -> bytes:
    """Expand a row bitmask into ``nrows`` selector bytes (1 = row alive)."""
    packed = mask.to_bytes((nrows + 7) // 8, "little")
    if _np is not None:
        bits = _np.unpackbits(
            _np.frombuffer(packed, dtype=_np.uint8), bitorder="little"
        )
        return bits[:nrows].tobytes()
    return b"".join(map(_BYTE_SELECTORS.__getitem__, packed))[:nrows]


def _mask_indices(mask: int) -> list[int]:
    """The set row ids of a row bitmask, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        mask ^= low
        ids.append(low.bit_length() - 1)
    return ids


#: Packed keys must stay below this span so ``key * base + code`` never
#: overflows int64; a wider key sends its operator to the pure-Python kernel.
_PACK_LIMIT = 2**62


class _KeyIndex(NamedTuple):
    """Sorted key index: distinct packed ``keys`` ascending; group ``g`` is the
    rows ``order[starts[g]:][:counts[g]]``, ascending (a stable argsort)."""

    bases: tuple[int, ...]
    keys: "_np.ndarray"
    starts: "_np.ndarray"
    counts: "_np.ndarray"
    order: "_np.ndarray"


def _views(columns) -> list | None:
    """Zero-copy int64 views of packed code columns (None off the numpy arm)."""
    if _np is None or not all(isinstance(column, array) for column in columns):
        return None
    return [_np.frombuffer(column, dtype=_np.int64) for column in columns]


def _bases(views) -> tuple[int, ...] | None:
    """The packability predicate: per-column radix ``max code + 1``, or None
    off the numpy arm, on a negative code or a key span at ``_PACK_LIMIT``."""
    if views is None:
        return None
    bases, span = [], 1
    for view in views:
        if len(view) and int(view.min()) < 0:
            return None
        bases.append(int(view.max()) + 1 if len(view) else 1)
        span *= bases[-1]
    return tuple(bases) if span < _PACK_LIMIT else None


def _pack(views, bases: tuple[int, ...], foreign: bool = False):
    """Fold key columns into one int64 per row, lexicographic in the columns.

    ``foreign`` columns were not measured by ``bases``: a row holding a code
    outside ``[0, base_j)`` matches no key packed under them and gets ``-1``.
    """
    keys = views[0]
    for view, base in zip(views[1:], bases[1:]):
        keys = keys * base + view
    if foreign:
        outside = _np.zeros(len(keys), dtype=_np.bool_)
        for view, base in zip(views, bases):
            outside |= (view < 0) | (view >= base)
        keys = _np.where(outside, -1, keys)
    return keys


def _unpack(keys, bases: tuple[int, ...]) -> list:
    """Inverse of :func:`_pack`: the code columns of packed ``keys``."""
    columns = []
    for base in reversed(bases[1:]):
        keys, codes = _np.divmod(keys, base)
        columns.append(codes)
    columns.append(keys)
    return columns[::-1]


def _group_heads(sorted_keys):
    """Boolean mask of the rows that differ from their predecessor."""
    heads = _np.ones(len(sorted_keys), dtype=_np.bool_)
    _np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=heads[1:])
    return heads


def _column(codes) -> array:
    """A contiguous int64 vector as a packed code column (one copy)."""
    out = array(_CODE_TYPECODE)
    out.frombytes(memoryview(codes).cast("B"))
    return out


def _gather(column: Sequence[int], row_ids: list[int]) -> array:
    """Materialise ``column[row_ids]`` as a packed code column."""
    return array(_CODE_TYPECODE, map(column.__getitem__, row_ids))


def _dedupe_columns(
    schema: tuple[str, ...], columns: list[Sequence[int]], nrows: int
) -> "ColumnarRelation":
    """Distinct rows of parallel code columns, as a new relation.

    Packable rows are sorted as packed keys, kept where they differ from
    their predecessor and unpacked again; the fallback dedupes through a
    row-tuple set.  Output row order differs between the two (lexicographic
    vs arbitrary) — both are valid: relations are sets and every consumer
    dedupes or indexes by key.
    """
    if nrows == 0:
        return ColumnarRelation(
            schema, tuple(array(_CODE_TYPECODE) for _ in schema), nrows=0
        )
    views = _views(columns)
    bases = _bases(views)
    if bases is not None:
        keys = _np.sort(_pack(views, bases))
        keys = keys[_group_heads(keys)]
        return ColumnarRelation(
            schema, tuple(map(_column, _unpack(keys, bases))), nrows=len(keys)
        )
    return ColumnarRelation.from_rows(schema, set(zip(*columns)))


def _compress_column(column: Sequence[int], selectors: bytes) -> array:
    """Keep the rows whose selector byte is 1, as a packed code column."""
    views = _views([column])
    if views is not None:
        return _column(views[0][_np.frombuffer(selectors, dtype=_np.bool_)])
    return array(_CODE_TYPECODE, compress(column, selectors))


class ColumnarRelation:
    """A dictionary-encoded, column-major relation with cached key indexes."""

    __slots__ = (
        "schema",
        "columns",
        "nrows",
        "_indexes",
        "_key_columns",
        "_key_masks",
        "_sorted_indexes",
        "_counted",
        "_position",
    )

    def __init__(
        self,
        schema: tuple[str, ...],
        columns: tuple[Sequence[int], ...],
        nrows: int | None = None,
    ) -> None:
        self.schema = schema
        self.columns = columns
        # A 0-ary relation has no columns but still 0 or 1 rows; the explicit
        # count keeps {()} distinguishable from the empty relation.
        self.nrows = (len(columns[0]) if columns else 0) if nrows is None else nrows
        self._indexes: dict[tuple[str, ...], dict] = {}
        self._key_columns: dict[tuple[str, ...], list] = {}
        self._key_masks: dict[tuple[str, ...], dict] = {}
        self._sorted_indexes: dict[tuple[str, ...], _KeyIndex | None] = {}
        self._counted: set[tuple[str, ...]] = set()
        self._position = {attribute: i for i, attribute in enumerate(schema)}

    def __len__(self) -> int:
        return self.nrows

    def __repr__(self) -> str:
        return f"<ColumnarRelation ({', '.join(self.schema)}) |{self.nrows}| >"

    def column(self, attribute: str) -> Sequence[int]:
        """The code column of ``attribute``."""
        try:
            return self.columns[self._position[attribute]]
        except KeyError:
            raise QueryError(f"columnar relation has no attribute {attribute!r}") from None

    def key_column(self, attributes: tuple[str, ...]) -> Sequence:
        """Join keys for ``attributes``, one per row.

        Single-attribute keys are the bare code column itself; wider keys are
        code tuples, zipped once and cached per attribute subset (the table's
        columns are immutable, so the cache never needs invalidation).
        """
        if len(attributes) == 1:
            return self.column(attributes[0])
        keys = self._key_columns.get(attributes)
        if keys is None:
            keys = list(zip(*(self.column(a) for a in attributes)))
            self._key_columns[attributes] = keys
        return keys

    def _count_index(self, attributes, stats) -> None:
        """Count an index request: the sorted, row-id and bitmask forms are one
        logical index per subset — built once, reused in whichever form."""
        if stats is None:
            return
        if attributes in self._counted:
            stats.indexes_reused += 1
        else:
            self._counted.add(attributes)
            stats.indexes_built += 1

    def sorted_index(
        self, attributes: tuple[str, ...], stats: "ExecutionStatistics | None" = None
    ) -> _KeyIndex | None:
        """The sorted key index over ``attributes``, built once per subset.

        None (and nothing counted) when the keys are not packable — the
        caller then runs its pure-Python kernel on :meth:`index_on` /
        :meth:`key_masks`.  Both semijoin passes and the join share it.
        """
        if attributes in self._sorted_indexes:
            index = self._sorted_indexes[attributes]
        else:
            views = _views([self.column(a) for a in attributes])
            bases = _bases(views)
            index = None
            if bases is not None:
                packed = _pack(views, bases)
                order = _np.argsort(packed, kind="stable")
                packed = packed[order]
                starts = _np.flatnonzero(_group_heads(packed))
                counts = _np.diff(starts, append=self.nrows)
                index = _KeyIndex(bases, packed[starts], starts, counts, order)
            self._sorted_indexes[attributes] = index
        if index is not None:
            self._count_index(attributes, stats)
        return index

    def key_masks(
        self, attributes: tuple[str, ...], stats: "ExecutionStatistics | None" = None
    ) -> dict:
        """Hash index key → bitmask of row ids, built once per attribute subset.

        This is the probe structure of the pure-Python bitmask semijoin: the
        rows of a dead key group are removed from an alive mask with one OR +
        AND-NOT instead of per-row byte flips.  Built chunk-wise so the
        per-row shift work stays bounded by ``_MASK_CHUNK`` bits.
        """
        self._count_index(attributes, stats)
        masks = self._key_masks.get(attributes)
        if masks is not None:
            return masks
        index = self._indexes.get(attributes)
        if index is not None:
            # Derive from the row-id-list view of the same logical index.
            masks = {
                key: sum(1 << row_id for row_id in row_ids)
                for key, row_ids in index.items()
            }
            self._key_masks[attributes] = masks
            return masks
        masks = {}
        keys = self.key_column(attributes)
        for base in range(0, self.nrows, _MASK_CHUNK):
            local: dict = {}
            get = local.get
            bit = 1
            for key in keys[base : base + _MASK_CHUNK]:
                local[key] = get(key, 0) | bit
                bit <<= 1
            if base:
                for key, mask in local.items():
                    masks[key] = masks.get(key, 0) | (mask << base)
            else:
                masks = local
        self._key_masks[attributes] = masks
        return masks

    def index_on(
        self, attributes: tuple[str, ...], stats: "ExecutionStatistics | None" = None
    ) -> dict:
        """Hash index key → list of row ids, built once per attribute subset.

        :meth:`key_masks` is the same logical index in bitmask form; when one
        representation exists the other is derived from it (the hashing and
        key grouping are shared), which counts as a reuse, not a build.
        """
        self._count_index(attributes, stats)
        index = self._indexes.get(attributes)
        if index is not None:
            return index
        masks = self._key_masks.get(attributes)
        if masks is not None:
            index = {key: _mask_indices(mask) for key, mask in masks.items()}
            self._indexes[attributes] = index
            return index
        index = {}
        for row_id, key in enumerate(self.key_column(attributes)):
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row_id]
            else:
                bucket.append(row_id)
        self._indexes[attributes] = index
        return index

    def rows(self):
        """Iterate over the rows as code tuples (row-major view)."""
        if self.columns:
            return zip(*self.columns)
        return iter([()] * self.nrows)

    @classmethod
    def from_rows(cls, schema: tuple[str, ...], rows) -> "ColumnarRelation":
        """Build from an iterable of code tuples (consumed once)."""
        materialised = list(rows)
        if not schema:
            return cls((), (), nrows=1 if materialised else 0)
        if not materialised:
            return cls(schema, tuple(array(_CODE_TYPECODE) for _ in schema))
        return cls(
            schema,
            tuple(array(_CODE_TYPECODE, column) for column in zip(*materialised)),
        )


@dataclass
class ExecutionStatistics(Counters):
    """Counters of one plan execution (index reuse is the headline number)."""

    indexes_built: int = 0
    indexes_reused: int = 0
    semijoins_run: int = 0
    semijoins_skipped: int = 0
    joins_run: int = 0
    rows_materialised: int = 0
    bags_built: int = 0
    bags_reused: int = 0
    early_exit: bool = False


class ColumnStore:
    """Dictionary-encoded view of a :class:`~repro.query.database.Database`.

    Encodings are computed lazily per atom binding pattern (relation name
    plus repeated-variable positions) and cached, as are the key indexes
    living on the cached :class:`ColumnarRelation` objects, the bag tables
    and each executed plan's outcome: the root row count, and for an
    ``ENUMERATE`` plan the decoded answer relation.  Keep one store per
    database and pass it to every execution to amortise the work across a
    workload.

    An in-memory database never changes under its store: its data version
    is None and it is never probed.  For a file-backed
    :class:`~repro.query.sqlgen.SQLDatabase` the executor reads the file's
    data version at the start of each execution, and every entry the
    execution reads or stores (atom columns, atom tables, bag tables and
    the outcome) is keyed by ``(version, key)``, as are the database's own
    materialised relations.  An entry read at an old version is therefore
    never served at a newer one, and the lookups take no lock.  When the
    version has moved, the store also drops the entries of the old one.
    Before it stores its outcome a run reads the version again; if another
    connection committed in between, the rows it read may mix two states
    of the file, so it stores nothing and runs again at the new version.

    The store may be shared by concurrent executions (the serving layer runs
    many queries against one database at once): the value dictionary grows
    only under a lock, taken once per column that holds new values (see
    :meth:`intern`) — without it two threads interning overlapping
    columns could hand out *different* codes for one value, breaking the
    code-equality-is-value-equality invariant — and the bag cache is a
    :class:`~repro.lru.SharedLRU` behind its own lock.  Atom tables may
    rarely be built twice under a race; both builds are equivalent and the
    last one wins, so that duplication costs time, never answers.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._codes: dict[object, int] = {}
        self._values: list[object] = []
        self._intern_lock = threading.Lock()
        #: (relation, repeat pattern) → encoded columns; shared across atoms
        #: that bind the same relation with the same repeat structure.
        self._atom_columns: dict[tuple, tuple[Sequence[int], ...]] = {}
        #: (relation, repeat pattern, variables) → the schema-bound table.
        self._atom_tables: dict[tuple, ColumnarRelation] = {}
        #: Materialised bag tables, keyed by the bag's structural signature
        #: (cover/filter atom identities + bag variables).  Bags depend
        #: only on that signature and the database content, so across a
        #: workload of repeated query shapes the bag join work — and the
        #: key indexes living on the cached tables — is paid once.  The
        #: same cache holds plan outcomes, keyed by the plan
        #: (:meth:`PlanExecutor.execute`).
        self._bag_tables: SharedLRU = SharedLRU(512)
        #: The source's data-version probe (None: the source never changes)
        #: and the version the caches were read at.
        self._probe = database._data_version
        self._version: int | None = None

    def _sync(self) -> int | None:
        """The source's data version now (None: it never changes).  When it
        moved, drop the entries keyed by the old one: they are never served
        again."""
        if self._probe is None:
            return None
        version = self._probe()
        # Unlocked: two threads may both clear, or a late thread may set an
        # older version and cause one more clear.  Either costs cache hits
        # only, because no lookup trusts ``_version``; every key holds one.
        if version != self._version:
            self._version = version
            self._atom_columns.clear()
            self._atom_tables.clear()
            self._bag_tables.clear()
        return version

    # ------------------------------------------------------------------ #
    # encoding
    # ------------------------------------------------------------------ #
    def intern(self, column: Sequence) -> list[int]:
        """The codes of ``column``'s values, interning the new ones: a lock-free
        ``map`` first; on a miss the lock is taken once, and each new value is
        appended to ``_values`` before its code is published in ``_codes``."""
        codes = self._codes
        out = list(map(codes.get, column))
        if None in out:
            with self._intern_lock:
                for value in dict.fromkeys(column):
                    if value not in codes:
                        self._values.append(value)
                        codes[value] = len(self._values) - 1
            out = list(map(codes.get, column))
        return out

    def decode(self, code: int) -> object:
        """The value interned under ``code``."""
        return self._values[code]

    # ------------------------------------------------------------------ #
    # base relations
    # ------------------------------------------------------------------ #
    def atom_table(self, binding: AtomBinding, version: int | None = None) -> ColumnarRelation:
        """The encoded relation of an atom, bound to its variables.

        Mirrors :func:`repro.query.joins.atom_relation`: attributes are the
        atom's distinct variables and rows violating repeated-variable
        equality are dropped.  Cached per (source data version, relation,
        argument pattern).
        """
        table_key = (version, *self.atom_key(binding))
        table = self._atom_tables.get(table_key)
        if table is not None:
            return table

        columns_key = table_key[:3]  # (version, relation, repeat pattern)
        columns = self._atom_columns.get(columns_key)
        if columns is None:
            base = self.database.get(binding.relation)
            if len(base.schema) != len(binding.arguments):
                raise QueryError(
                    f"atom {binding.edge} has arity {len(binding.arguments)} but "
                    f"relation {binding.relation!r} has arity {len(base.schema)}"
                )
            raw = list(zip(*base.tuples)) or [()] * len(binding.arguments)
            first = {v: binding.arguments.index(v) for v in binding.variables}
            codes = {v: self.intern(raw[p]) for v, p in first.items()}
            if binding.has_repeats:
                # A later occurrence is only looked up: a value the dictionary
                # lacks equals no interned first occurrence.
                checks = [
                    map(operator.eq, map(self._codes.get, raw[i]), codes[v])
                    for i, v in enumerate(binding.arguments)
                    if first[v] != i
                ]
                keep = bytes(map(all, zip(*checks)))
                codes = {v: compress(column, keep) for v, column in codes.items()}
            # ``base.tuples`` is a set and the checked rows agree on every
            # repeat, so the projection onto the distinct variables keeps
            # the rows distinct: no dedupe.
            columns = tuple(array(_CODE_TYPECODE, column) for column in codes.values())
            self._atom_columns[columns_key] = columns
        table = ColumnarRelation(binding.variables, columns)
        self._atom_tables[table_key] = table
        return table

    @staticmethod
    def atom_key(binding: AtomBinding) -> tuple:
        """The identity under which :meth:`atom_table` caches a binding."""
        pattern = tuple(binding.arguments.index(a) for a in binding.arguments)
        return (binding.relation, pattern, binding.variables)

    def bag_table(self, key: tuple, build) -> tuple[ColumnarRelation, bool]:
        """Get-or-build a materialised bag table; returns (table, was_cached)."""
        table = self._bag_tables.get(key)
        if table is not None:
            return table, True
        table = build()
        self._bag_tables.put(key, table)
        return table, False


class _NodeState:
    """Mutable per-node execution state: the bag table plus a liveness mask.

    ``alive`` is a packed row bitmask (bit ``i`` set = row ``i`` survives),
    ``None`` while every row is still alive.  Key-set snapshots are cached
    per attribute subset and invalidated through a version counter that is
    bumped on every alive-mask change.
    """

    __slots__ = ("table", "alive", "live_count", "_version", "_live_keys")

    def __init__(self, table: ColumnarRelation) -> None:
        self.table = table
        self.alive: int | None = None  # None = every row alive
        self.live_count = table.nrows
        self._version = 0
        self._live_keys: dict[tuple, tuple[int, object]] = {}

    def kill(self, dead: int) -> None:
        """Clear the rows of the ``dead`` bitmask from the alive set."""
        alive = self.alive if self.alive is not None else (1 << self.table.nrows) - 1
        survivors = alive & ~dead
        if survivors == alive and self.alive is not None:
            return  # only already-dead rows: the mask (and caches) stand
        self.alive = survivors
        self.live_count = survivors.bit_count()
        self._version += 1

    def selectors(self) -> bytes | None:
        """Per-row 0/1 selector bytes of the alive mask (None = all alive)."""
        if self.alive is None:
            return None
        return _mask_to_selectors(self.alive, self.table.nrows)

    def live_table(self) -> ColumnarRelation:
        """The alive rows as a table (the table itself while all are alive),
        compacted column-at-a-time; the mask keeps the rows distinct."""
        if self.alive is None:
            return self.table
        selectors = self.selectors()
        columns = tuple(_compress_column(column, selectors) for column in self.table.columns)
        return ColumnarRelation(self.table.schema, columns, nrows=self.live_count)

    def live_keys(self, attributes: tuple[str, ...]) -> set:
        """Distinct join keys of the alive rows over ``attributes``.

        Cached per attribute subset while the alive mask is unchanged — the
        top-down pass re-reads the key sets the bottom-up pass computed for
        every node whose mask was not touched in between.
        """
        cached = self._live_keys.get(attributes)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        keys = self.table.key_column(attributes)
        if self.alive is None:
            result = set(keys)
        else:
            result = set(compress(keys, self.selectors()))
        self._live_keys[attributes] = (self._version, result)
        return result

    def live_packed_keys(self, attributes: tuple[str, ...], bases: tuple[int, ...]):
        """:meth:`live_keys` on the numpy arm: distinct packed keys, ascending.

        Read off the table's own sorted index (a group lives while any of its
        rows does), re-packed under the probing side's ``bases`` when the two
        tables measured different radixes, and cached the same way.
        """
        cached = self._live_keys.get((attributes, bases))
        if cached is not None and cached[0] == self._version:
            return cached[1]
        index = self.table.sorted_index(attributes)
        keys = index.keys
        if self.alive is not None:
            alive = _np.frombuffer(self.selectors(), dtype=_np.bool_)
            keys = keys[_np.logical_or.reduceat(alive[index.order], index.starts)]
        if index.bases != bases:
            keys = _pack(_unpack(keys, index.bases), bases, foreign=True)
            keys = keys[keys >= 0]
        self._live_keys[(attributes, bases)] = (self._version, keys)
        return keys


@dataclass
class ExecutionResult:
    """Outcome of running a plan: exactly one of the payloads is primary.

    ``answers`` is populated for ``ENUMERATE``; ``count`` for ``COUNT`` (and
    derived for ``ENUMERATE``); ``boolean`` is filled for every mode.
    """

    mode: AnswerMode
    answers: Relation | None = None
    boolean: bool | None = None
    count: int | None = None
    statistics: ExecutionStatistics = field(default_factory=ExecutionStatistics)

    @classmethod
    def of(
        cls,
        plan: QueryPlan,
        statistics: ExecutionStatistics,
        count: int,
        answers: Relation | None = None,
    ) -> "ExecutionResult":
        """The result of ``plan`` from its root row count — every executor's tail.

        ``count`` is the number of rows the executor's final table holds: the
        distinct answers, or for a ``BOOLEAN`` plan the surviving root tuples;
        0 is the early-exit shape.  ``answers`` is an ``ENUMERATE`` plan's
        answer relation, taken as is (None: the empty answer); being
        immutable, one relation may serve every repeat of the plan.
        """
        mode = plan.mode
        if mode is AnswerMode.BOOLEAN:
            return cls(mode, boolean=count > 0, statistics=statistics)
        if mode is AnswerMode.COUNT:
            return cls(mode, boolean=count > 0, count=count, statistics=statistics)
        if answers is None:
            answers = Relation.from_trusted_rows("answer", plan.output, frozenset())
        return cls(
            mode,
            answers=answers,
            boolean=len(answers) > 0,
            count=len(answers),
            statistics=statistics,
        )


class PlanExecutor:
    """Runs compiled plans over a column store.

    ``deadline`` (a :class:`~repro.deadline.Deadline`) arms in-flight
    cancellation: the executor polls it at stage boundaries and every
    ``_CHECK_STRIDE`` rows inside the join/semijoin kernels (every
    ``16 * _CHECK_STRIDE`` rows — one vectorised block — in the packed join
    and the cartesian product), raising
    :class:`~repro.exceptions.TimeoutExceeded` promptly instead of running
    the plan to completion.  Unarmed executions (``None``, the default) pay
    a single ``is None`` test per kernel row.
    """

    def __init__(self, store: ColumnStore, deadline: Deadline | None = None) -> None:
        self.store = store
        self._deadline = deadline
        self._ticks = 0
        #: The source's data version this execution reads at.
        self._version: int | None = None

    def _check(self) -> None:
        """Poll the deadline now (stage boundaries, vectorised blocks)."""
        if self._deadline is not None:
            self._deadline.check("query execution")

    def _tick(self) -> None:
        """One kernel row of an armed execution: poll every ``_CHECK_STRIDE``."""
        self._ticks += 1
        if not self._ticks % _CHECK_STRIDE:
            self._check()

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #
    def execute(self, plan: QueryPlan) -> ExecutionResult:
        """Execute ``plan`` against the store's database.

        A plan is a pure function of its bags, so its outcome (the root row
        count, and for ``ENUMERATE`` the answer relation, decoded once) is
        recycled in the store's bag cache under (data version, plan): a
        repeated plan polls the deadline, probes the version, runs no
        operator, decodes nothing and reports every bag reused; every
        repeat returns the same immutable answer object.  A run that raises
        stores nothing, and so does a run during which the source's data
        version moved: it runs again at the new version.
        """
        store = self.store
        while True:
            self._check()
            version = self._version = store._sync()
            outcome = store._bag_tables.get((version, plan))
            if outcome is not None:
                count, answers = outcome
                # A run that did not exit early ends with a non-empty root.
                stats = ExecutionStatistics(bags_reused=len(plan.bags), early_exit=not count)
                return ExecutionResult.of(plan, stats, count, answers)
            stats = ExecutionStatistics()
            count, root = self._run(plan, stats)
            answers = None
            if plan.mode is AnswerMode.ENUMERATE:
                answers = self._decode(plan, root)
            if store._sync() == version:
                store._bag_tables.put((version, plan), (count, answers))
                return ExecutionResult.of(plan, stats, count, answers)
            # Another connection committed during the run, so its reads may
            # mix two states of the file: store nothing, run at the new one.

    def _decode(self, plan: QueryPlan, root: ColumnarRelation | None) -> Relation:
        """The answer relation of an ``ENUMERATE`` root (None: early exit),
        decoded column-at-a-time in output order into one frozenset."""
        if root is None or not root.nrows:
            rows = frozenset()
        elif not plan.output:
            rows = frozenset({()})
        else:
            self._check()
            decode = self.store._values.__getitem__
            rows = frozenset(zip(*(map(decode, root.column(v)) for v in plan.output)))
        return Relation.from_trusted_rows("answer", plan.output, rows)

    def _run(
        self, plan: QueryPlan, stats: ExecutionStatistics
    ) -> tuple[int, ColumnarRelation | None]:
        """Bags, semijoin passes and joins: the root row count and, for an
        ``ENUMERATE`` plan that did not exit early, the root table."""
        states = self._bag_states(plan, stats)
        if states is None or not self._reduce(plan, states, stats):
            stats.early_exit = True
            return 0, None
        if plan.mode is AnswerMode.BOOLEAN:
            # Bottom-up reduction succeeded with a surviving root tuple.
            return states[0].live_count, None
        root = self._join_stage(plan, states, stats)
        # Joins of distinct inputs stay distinct and projections dedupe, so
        # the root row count *is* the answer count.
        return root.nrows, root if plan.mode is AnswerMode.ENUMERATE else None

    # ------------------------------------------------------------------ #
    # stage 1: bag materialisation
    # ------------------------------------------------------------------ #
    def _bag_states(
        self, plan: QueryPlan, stats: ExecutionStatistics
    ) -> list[_NodeState] | None:
        states: list[_NodeState] = []
        for bag in plan.bags:
            self._check()
            key = (
                self._version,
                tuple(ColumnStore.atom_key(plan.atoms[i]) for i in bag.cover),
                bag.variables,
                tuple(ColumnStore.atom_key(plan.atoms[i]) for i in bag.filters),
            )
            table, cached = self.store.bag_table(
                key, lambda: self._build_bag(plan, bag, stats)
            )
            if cached:
                stats.bags_reused += 1
            else:
                stats.bags_built += 1
            if table.nrows == 0:
                return None
            states.append(_NodeState(table))
        return states

    def _build_bag(self, plan: QueryPlan, bag, stats: ExecutionStatistics) -> ColumnarRelation:
        pending = [self.store.atom_table(plan.atoms[i], self._version) for i in bag.cover]
        # Greedy join order: always join in a table sharing attributes with
        # the accumulated schema to avoid needless cartesian growth.
        current = pending.pop(0)
        while pending:
            choice = next(
                (
                    i
                    for i, table in enumerate(pending)
                    if any(a in current._position for a in table.schema)
                ),
                0,
            )
            current = self._join(current, pending.pop(choice), stats)
        # Project onto the bag variables (dedupe on code tuples).
        if current.schema != bag.variables:
            positions = [current._position[a] for a in bag.variables]
            columns = [current.columns[p] for p in positions]
            if columns:
                current = _dedupe_columns(bag.variables, columns, current.nrows)
            else:
                rows = set() if current.nrows == 0 else {()}
                current = ColumnarRelation.from_rows(bag.variables, rows)
        stats.rows_materialised += current.nrows
        # Semijoin with the filter atoms; their index requests are not counted.
        state = _NodeState(current)
        for atom_index in bag.filters:
            atom = self.store.atom_table(plan.atoms[atom_index], self._version)
            shared = tuple(a for a in bag.variables if a in atom._position)
            if not atom.nrows or not self._semijoin(state, _NodeState(atom), shared):
                return ColumnarRelation.from_rows(bag.variables, ())
        return state.live_table()

    # ------------------------------------------------------------------ #
    # stage 2: the semijoin passes (full reduction)
    # ------------------------------------------------------------------ #
    def _reduce(
        self, plan: QueryPlan, states: list[_NodeState], stats: ExecutionStatistics
    ) -> bool:
        """Run the bottom-up (and for non-Boolean plans top-down) passes.

        Returns False as soon as any node loses all its tuples.
        """
        for op in plan.bottom_up + plan.top_down:
            if not op.on:
                stats.semijoins_skipped += 1
            else:
                stats.semijoins_run += 1
            if not self._semijoin(states[op.target], states[op.source], op.on, stats):
                return False
        return True

    def _semijoin(
        self,
        target: _NodeState,
        source: _NodeState,
        on: tuple[str, ...],
        stats: ExecutionStatistics | None = None,
    ) -> bool:
        """Keep ``target``'s rows that join a live ``source`` row on ``on``;
        False iff none is left.  ``source`` must hold a live row (an empty
        node aborts the passes), so without shared variables nothing dies."""
        if not on:
            return True
        self._check()
        # Packed kernel when both sides pack (the source's index is not counted,
        # like its key set): mark the key groups the source no longer holds,
        # scatter them to rows and clear them as the same int bitmask.
        index = source.table.sorted_index(on) and target.table.sorted_index(on, stats)
        if index is not None:
            gone = ~_np.isin(
                index.keys, source.live_packed_keys(on, index.bases), assume_unique=True
            )
            if gone.any():
                dead = _np.empty(target.table.nrows, dtype=_np.bool_)
                dead[index.order] = _np.repeat(gone, index.counts)
                target.kill(
                    int.from_bytes(_np.packbits(dead, bitorder="little").tobytes(), "little")
                )
            return target.live_count > 0
        source_keys = source.live_keys(on)
        key_masks = target.table.key_masks(on, stats)
        # OR the row masks of the dead key groups, then clear them all at
        # once — the per-row work collapses into wide integer ops.
        dead = 0
        deadline = self._deadline
        for key, mask in key_masks.items():
            if deadline is not None:
                self._tick()
            if key not in source_keys:
                dead |= mask
        if dead:
            target.kill(dead)
        return target.live_count > 0

    # ------------------------------------------------------------------ #
    # stage 3: the projecting join schedule
    # ------------------------------------------------------------------ #
    def _join_stage(
        self, plan: QueryPlan, states: list[_NodeState], stats: ExecutionStatistics
    ) -> ColumnarRelation:
        # Per-node intermediate results; initialised lazily from the node
        # state so untouched leaves never materialise row sets.
        results: dict[int, ColumnarRelation] = {}

        def node_result(node_id: int) -> ColumnarRelation:
            table = results.get(node_id)
            if table is None:
                table = results[node_id] = states[node_id].live_table()
            return table

        for op in plan.join_schedule:
            if isinstance(op, JoinOp):
                # Only a leaf is projected here: a last join wrote ``retain``.
                child = self._project(node_result(op.source), op.retain)
                joined = self._join(node_result(op.target), child, stats)
                results[op.target] = self._project(joined, op.schema)
            else:  # ProjectOp: a root without children
                results[op.node] = self._project(node_result(op.node), op.attributes)

        return node_result(0)

    # ------------------------------------------------------------------ #
    # relational kernels
    # ------------------------------------------------------------------ #
    def _project(self, table: ColumnarRelation, attributes: tuple[str, ...]) -> ColumnarRelation:
        if attributes == table.schema:
            return table
        if not attributes:
            rows: set[tuple[int, ...]] = {()} if table.nrows else set()
            return ColumnarRelation.from_rows((), rows)
        columns = [table.column(a) for a in attributes]
        return _dedupe_columns(attributes, columns, table.nrows)

    def _join(
        self, left: ColumnarRelation, right: ColumnarRelation, stats: ExecutionStatistics
    ) -> ColumnarRelation:
        """Natural join; schema is left's attributes then right's extras.

        Works column-at-a-time: the probe phase only collects matching
        (left, right) row-id pairs, then every output column is gathered in
        one pass.  Both inputs hold distinct rows, so the output rows are
        distinct without a dedupe pass.  Output order is the same on both
        kernel arms: left-major, right row ids ascending per left row.
        """
        stats.joins_run += 1
        self._check()
        deadline = self._deadline
        shared = tuple(a for a in left.schema if a in right._position)
        right_extra = tuple(a for a in right.schema if a not in left._position)
        schema = left.schema + right_extra

        # A vectorised block does the work of this many ticked rows.
        block = 16 * _CHECK_STRIDE

        if not shared:
            return self._product(left, right, schema, block)

        # Empty inputs take the pure kernel, which is trivial on them.
        left_views = _views(left.columns) if left.nrows and right.nrows else None
        index = right.sorted_index(shared, stats) if left_views is not None else None
        if index is not None:
            # Packed kernel: locate each left key's group in the right index,
            # then expand the (left, right) row-id pairs block by block —
            # left-major, right row ids ascending within a group.
            keys = _pack(
                [left_views[left._position[a]] for a in shared], index.bases, foreign=True
            )
            groups = _np.minimum(_np.searchsorted(index.keys, keys), len(index.keys) - 1)
            matches = _np.where(index.keys[groups] == keys, index.counts[groups], 0)
            left_blocks, right_blocks = [], []
            for start in range(0, left.nrows, block):
                self._check()
                counts = matches[start : start + block]
                ends = _np.cumsum(counts)
                left_blocks.append(
                    _np.repeat(_np.arange(start, start + len(counts)), counts)
                )
                # Position in ``order`` = group start + offset within the group.
                first = index.starts[groups[start : start + block]] - (ends - counts)
                right_blocks.append(
                    index.order[_np.repeat(first, counts) + _np.arange(int(ends[-1]))]
                )
            left_ids = _np.concatenate(left_blocks)
            right_ids = _np.concatenate(right_blocks)
            stats.rows_materialised += len(right_ids)
            columns = [_column(view[left_ids]) for view in left_views]
            columns += [
                _column(view[right_ids])
                for view in _views([right.column(a) for a in right_extra])
            ]
            return ColumnarRelation(schema, tuple(columns), nrows=len(right_ids))

        # Probe the (cached) index of the right side with left-side keys.
        index = right.index_on(shared, stats)
        left_ids: list[int] = []
        right_ids: list[int] = []
        extend = right_ids.extend
        for left_id, key in enumerate(left.key_column(shared)):
            if deadline is not None:
                self._tick()
            bucket = index.get(key)
            if bucket is not None:
                extend(bucket)
                left_ids.extend([left_id] * len(bucket))
        stats.rows_materialised += len(right_ids)
        columns = [_gather(column, left_ids) for column in left.columns]
        columns += [
            _gather(right.column(a), right_ids) for a in right_extra
        ]
        return ColumnarRelation(schema, tuple(columns), nrows=len(right_ids))

    def _product(
        self, left: ColumnarRelation, right: ColumnarRelation, schema: tuple[str, ...], block: int
    ) -> ColumnarRelation:
        """Cartesian product (rare: disjoint λ-cover atoms in one bag).

        Built in blocks of about ``block`` output rows with a poll before
        each, so a cancelled query never runs the whole product.
        """
        n_left, n_right = left.nrows, right.nrows
        step = max(1, block // max(1, n_right))
        columns = [array(_CODE_TYPECODE) for _ in schema]
        for start in range(0, n_left if n_right else 0, step):
            self._check()
            rows = min(step, n_left - start)
            for out, column in zip(columns, left.columns):
                for value in column[start : start + rows]:
                    out.extend(array(_CODE_TYPECODE, (value,)) * n_right)
            for out, column in zip(columns[len(left.columns) :], right.columns):
                out.extend(column * rows)
        return ColumnarRelation(schema, tuple(columns), nrows=n_left * n_right)

