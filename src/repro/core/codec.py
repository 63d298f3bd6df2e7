"""Stable JSON frames for decompositions and service payloads.

Every payload is a **frame**: a frozen dataclass whose typed fields are its
wire schema, tagged with a ``FORMAT`` and, where two frames share one, a
``KIND``.  :meth:`Frame.to_dict` writes a frame and :func:`decode` reads one
back, both derived once per field annotation: one validating reader serves
the durable catalog (:mod:`repro.catalog`) and both directions of the
process backend's wire.  The ``*_to_dict`` / ``*_from_dict`` functions
convert between frames and library objects.

* **Validating** — a missing or mistyped field, a wrong tag, a non-scalar
  value or nesting deeper than the interpreter follows raises
  :class:`~repro.exceptions.ParseError`; building the library object adds
  its constructor's errors (e.g. :class:`~repro.exceptions.DecompositionError`
  for an edge or vertex the host does not have).
* **Host-free** — only a decomposition's tree (bags, covers, kind) is
  encoded; decoding takes the host explicitly and re-resolves every name
  against it, so a payload cannot smuggle in structure the host lacks.
* **Byte-stable where it matters** — the catalog's two texts, the
  certificate (:func:`decomposition_to_json`) and the statistics column
  (:func:`statistics_to_json`), are sorted-key JSON of sorted collections:
  a catalog file outlives the code that wrote it.  A table, a shipped
  database's relation or a query answer, is a set on both sides and
  nothing compares its payloads, so it crosses by columns, in no order
  (:class:`TableFrame`).  The ``format`` tag makes a schema change fail
  loudly instead of mis-decoding old rows.

Round-trip example::

    >>> from repro import Hypergraph, hypertree_width
    >>> from repro.core.codec import decomposition_to_json, decomposition_from_json
    >>> h = Hypergraph({"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]})
    >>> _, hd = hypertree_width(h)
    >>> restored = decomposition_from_json(h, decomposition_to_json(hd))
    >>> type(restored) is type(hd) and restored.width == hd.width
    True
"""

import builtins
import importlib
import json
from dataclasses import MISSING, dataclass, fields
from functools import cache, partial
from itertools import chain
from types import NoneType, UnionType
from typing import ClassVar, get_args, get_origin

from ..counters import Counters
from ..decomp.decomposition import (
    Decomposition,
    DecompositionNode,
    GeneralizedHypertreeDecomposition,
    HypertreeDecomposition,
)
from ..exceptions import ParseError, ServiceError
from ..hypergraph import Hypergraph
from ..hypergraph.cq import Atom, ConjunctiveQuery
from .base import DecompositionResult, SearchStatistics

__all__ = [
    "DECOMPOSITION_FORMAT", "HYPERGRAPH_FORMAT", "DATABASE_FORMAT", "REQUEST_FORMAT",
    "ANSWER_FORMAT", "ERROR_FORMAT", "Frame", "NodeFrame", "TreeFrame", "HypergraphFrame",
    "TableFrame", "RelationFrame", "DatabaseFrame",
    "DecomposeRequestFrame", "QueryRequestFrame", "DecompositionAnswerFrame", "QueryAnswerFrame",
    "ErrorFrame",
    "decode", "kind_of", "class_for_kind", "decomposition_to_dict", "decomposition_from_dict",
    "decomposition_to_json", "decomposition_from_json", "statistics_to_json",
    "statistics_from_json", "hypergraph_to_dict", "hypergraph_from_dict", "database_to_dict",
    "database_from_dict", "decompose_request_to_dict", "query_request_to_dict",
    "service_request_from_dict", "decomposition_answer_to_dict",
    "decomposition_answer_from_dict", "query_answer_to_dict", "query_answer_from_dict",
    "error_to_dict", "error_from_dict",
]  # fmt: skip

DECOMPOSITION_FORMAT = "repro-decomposition/1"
HYPERGRAPH_FORMAT = "repro-hypergraph/1"
DATABASE_FORMAT = "repro-database/2"
REQUEST_FORMAT = "repro-service-request/1"
ANSWER_FORMAT = "repro-service-answer/1"
ERROR_FORMAT = "repro-service-error/1"

#: Payload ``kind`` → decomposition class; the plain base class lets a
#: payload be explicit about *not* claiming any conditions.
_KIND_CLASSES: dict[str, type[Decomposition]] = {
    HypertreeDecomposition.kind: HypertreeDecomposition,
    GeneralizedHypertreeDecomposition.kind: GeneralizedHypertreeDecomposition,
    Decomposition.kind: Decomposition,
}


def kind_of(decomposition_class: type) -> str:
    """The payload ``kind`` tag of a decomposition class (e.g. ``"hd"``)."""
    kind = getattr(decomposition_class, "kind", None)
    if kind not in _KIND_CLASSES:
        raise ParseError(f"unknown decomposition class {decomposition_class!r}")
    return kind


def class_for_kind(kind: str) -> type[Decomposition]:
    """The decomposition class of a payload ``kind`` tag."""
    try:
        return _KIND_CLASSES[kind]
    except KeyError:
        known = ", ".join(sorted(_KIND_CLASSES))
        raise ParseError(f"unknown decomposition kind {kind!r}; known: {known}") from None


# --------------------------------------------------------------------------- #
# field annotations → readers and writers
# --------------------------------------------------------------------------- #
#: A JSON scalar: all a shipped table or option value may hold.
Scalar = str | int | float | bool | None
#: A table's columns: one list of scalars per attribute, rows in no order
#: (the sender's frame may hold any sequences; the wire holds lists).
Columns = list[list[Scalar]]
_SCALARS = (str, int, float, bool, NoneType)


def _fail(expected: str, value: object) -> ParseError:
    return ParseError(f"expected {expected}, got {type(value).__name__}")


def _check_scalars(values, where: str) -> None:
    """``isinstance(value, _SCALARS)`` for every value, at C speed."""
    bad = sorted(kind.__name__ for kind in set(map(type, values)) if not issubclass(kind, _SCALARS))
    if bad:
        raise ParseError(f"{where} may hold JSON scalars only, not {', '.join(bad)}")


def _scalar(*kinds: type) -> tuple:
    """A leaf of exactly ``kinds`` (``true`` is no int; an int may be a float)."""

    def read(value):  # reached only for a value of another type
        raise _fail(kinds[-1].__name__, value)

    return kinds, read, None


def _read_named(value) -> list[tuple[str, list[str]]]:
    pairs = type(value) is list and set(map(type, value)) <= {list} and set(map(len, value)) <= {2}
    names, lists = zip(*value) if pairs and value else ((), ())
    if not (pairs and set(map(type, names)) <= {str} and set(map(type, lists)) <= {list}
            and set(map(type, chain.from_iterable(lists))) <= {str}):  # fmt: skip
        raise _fail("a list of [name, strings] pairs", value)
    return list(zip(names, lists))


def _scalar_dict(value) -> dict:
    if type(value) is not dict or not set(map(type, value)) <= {str}:
        raise _fail("an object with string keys", value)
    _check_scalars(value.values(), "an object")
    return dict(value)


def _read_columns(value) -> list:
    # The values are checked where the rows are built (TableFrame.build).
    if type(value) is not list or not set(map(type, value)) <= {list}:
        raise _fail("a list of columns", value)
    return value


def _write_columns(columns) -> list:
    _check_scalars(chain.from_iterable(columns), "a column")
    return list(map(list, columns))


#: ``(kinds, read, write)`` of the leaf annotations (see :func:`_codec`).
_LEAVES = {
    str: _scalar(str),
    int: _scalar(int),
    bool: _scalar(bool),
    float: _scalar(int, float),
    list[tuple[str, list[str]]]: ((), _read_named, lambda value: list(map(list, value))),
    dict[str, Scalar]: ((), _scalar_dict, _scalar_dict),
    Columns: ((), _read_columns, _write_columns),
}


@cache
def _codec(hint) -> tuple:
    """``(kinds, read, write)`` of one field annotation: a wire value of a type
    in ``kinds`` is the field value, ``read`` turns any other into one or
    raises ``ParseError``, ``write`` (None: identity) makes the wire value."""
    if isinstance(hint, str):  # a frame's reference to itself
        return _codec(globals()[hint])
    if hint in _LEAVES:
        return _LEAVES[hint]
    args = get_args(hint)
    if isinstance(hint, UnionType):  # ``X | None``
        kinds, read, write = _codec(args[0])
        return (*kinds, NoneType), read, write and (lambda v: None if v is None else write(v))
    if get_origin(hint) is list:
        kinds, read, write = _codec(args[0])
        item = read if not kinds else (lambda value: value if type(value) in kinds else read(value))
        same = frozenset(kinds)  # items of these types are their own field values

        def read_items(value):
            if type(value) is not list:
                raise _fail("a list", value)
            return value if same and set(map(type, value)) <= same else list(map(item, value))

        return (), read_items, write and (lambda value: list(map(write, value)))
    if issubclass(hint, Frame):
        return (), partial(_read_frame, hint), hint.to_dict
    if issubclass(hint, Counters):
        return (), hint.from_dict, hint.as_dict
    raise TypeError(f"no codec for the field type {hint!r}")


@cache
def _plan(cls) -> tuple:
    """A frame class's tags, ``(field, kinds, read, default)`` per field,
    ``(field, write)`` per field with a distinct wire value, ``__post_init__``,
    and the keys a payload may hold (its tags and fields)."""
    tags = {"format": cls.FORMAT, "kind": cls.KIND}
    tags = {tag: value for tag, value in tags.items() if value is not None}
    codecs = [(spec, *_codec(spec.type)) for spec in fields(cls)]
    return (
        tags,
        tuple((spec.name, kinds, read, spec.default) for spec, kinds, read, _ in codecs),
        tuple((spec.name, write) for spec, _, _, write in codecs if write is not None),
        getattr(cls, "__post_init__", None),
        frozenset(tags) | {spec.name for spec in fields(cls)},
    )


def _read_frame(cls, payload):
    if type(payload) is not dict:
        raise _fail(f"a {cls.__name__} object", payload)
    _, reads, _, check, declared = _plan(cls)
    if not payload.keys() <= declared:
        undeclared = ", ".join(sorted(map(repr, payload.keys() - declared)))
        raise ParseError(f"{cls.__name__} payload has undeclared keys: {undeclared}")
    values = {}
    for name, kinds, read, default in reads:
        if (value := payload.get(name, default)) is MISSING:
            raise ParseError(f"{cls.__name__} payload is missing the {name!r} field")
        if type(value) in kinds:
            values[name] = value
            continue
        try:
            values[name] = read(value)
        except ParseError as exc:
            raise ParseError(f"{cls.__name__}.{name}: {exc}") from None
    frame = _new(cls, values)
    if check is not None:
        check(frame)
    return frame


def _new(cls, values: dict):
    """A frame of ``values`` (every field, in order, of its declared type),
    without the frozen ``__init__``'s per-field ``object.__setattr__``."""
    frame = cls.__new__(cls)
    object.__setattr__(frame, "__dict__", values)
    return frame


class Frame:
    """A payload: a frozen dataclass whose field annotations are its schema
    (``FORMAT`` is None for a frame that only travels inside another)."""

    FORMAT: ClassVar[str | None] = None
    KIND: ClassVar[str | None] = None

    def to_dict(self) -> dict:
        """The frame as plain JSON data: tags first, then fields in order."""
        tags, _, writes, _, _ = _plan(type(self))
        payload = {**tags, **vars(self)}
        for name, write in writes:
            payload[name] = write(payload[name])
        return payload


def decode(payload: object, *expected: type[Frame]) -> Frame:
    """Read ``payload`` as whichever ``expected`` frame its tags name, or
    raise :class:`~repro.exceptions.ParseError`."""
    if type(payload) is not dict:
        raise _fail("a JSON object", payload)
    tags = payload.get("format"), payload.get("kind")
    for cls in expected:
        if cls.FORMAT == tags[0] and cls.KIND in (None, tags[1]):
            try:
                return _read_frame(cls, payload)
            except RecursionError:
                raise ParseError(f"{cls.__name__} payload nests too deeply") from None
    names = " or ".join(cls.__name__ for cls in expected)
    raise ParseError(f"expected a {names} payload, got format {tags[0]!r} kind {tags[1]!r}")


# No ``__eq__`` / ``__repr__``: frames are never compared, and each costs import time.
_frame = dataclass(frozen=True, kw_only=True, eq=False, repr=False)


# --------------------------------------------------------------------------- #
# decomposition trees and the catalog's texts
# --------------------------------------------------------------------------- #
@_frame
class NodeFrame(Frame):
    """One tree node: sorted bag χ(u), sorted cover λ(u), children."""

    bag: list[str]
    cover: list[str]
    children: list["NodeFrame"]

    @classmethod
    def of(cls, node: DecompositionNode) -> "NodeFrame":
        children = list(map(cls.of, node.children))
        values = {"bag": sorted(node.bag), "cover": sorted(node.cover), "children": children}
        return _new(cls, values)

    def build(self) -> DecompositionNode:
        children = tuple(map(NodeFrame.build, self.children))
        return DecompositionNode(frozenset(self.bag), frozenset(self.cover), children)


@_frame
class TreeFrame(Frame):
    """A decomposition's tree; ``kind`` names its class (see :func:`kind_of`)."""

    FORMAT = DECOMPOSITION_FORMAT
    kind: str
    root: NodeFrame

    @classmethod
    def of(cls, decomposition: Decomposition) -> "TreeFrame":
        return cls(kind=decomposition.kind, root=NodeFrame.of(decomposition.root))

    def build(self, hypergraph: Hypergraph) -> Decomposition:
        return class_for_kind(self.kind)(hypergraph, self.root.build())


def decomposition_to_dict(decomposition: Decomposition) -> dict:
    """Encode a decomposition's tree (bags, covers, kind) as plain JSON data;
    the host is not part of it (pass it to :func:`decomposition_from_dict`)."""
    return TreeFrame.of(decomposition).to_dict()


def decomposition_from_dict(hypergraph: Hypergraph, payload: dict) -> Decomposition:
    """Rebuild a decomposition over ``hypergraph`` from an encoded payload.

    Raises :class:`~repro.exceptions.ParseError` for malformed payloads and
    :class:`~repro.exceptions.DecompositionError` for an edge or vertex the
    host does not have.  The HD/GHD conditions are *not* checked — run the
    :mod:`repro.decomp.validation` oracle before trusting the result (the
    catalog does).
    """
    return decode(payload, TreeFrame).build(hypergraph)


def decomposition_to_json(decomposition: Decomposition) -> str:
    """:func:`decomposition_to_dict` rendered as canonical (sorted-key) JSON."""
    return json.dumps(decomposition_to_dict(decomposition), sort_keys=True)


def decomposition_from_json(hypergraph: Hypergraph, text: str) -> Decomposition:
    """Decode :func:`decomposition_to_json` output over the given host."""
    return decomposition_from_dict(hypergraph, _load_json(text))


def statistics_to_json(statistics: SearchStatistics) -> str:
    """The catalog's statistics column: all counters but one run's timings."""
    counters = statistics.as_dict()
    del counters["stage_seconds"]
    return json.dumps(counters, sort_keys=True)


def statistics_from_json(text: str) -> SearchStatistics:
    """Decode :func:`statistics_to_json` output (unknown counters are ignored)."""
    return SearchStatistics.from_dict(_load_json(text))


def _load_json(text: str):
    try:
        return json.loads(text)
    except (TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"payload is not valid JSON: {exc}") from exc


# --------------------------------------------------------------------------- #
# process-boundary payloads: hypergraphs and databases (shipped once per
# worker slot), requests (per task), answers and errors (per result).  They
# are QueryPlan-free — plans are compiled worker-side from the shipped query,
# so the wire format never depends on executor internals.
# --------------------------------------------------------------------------- #
@_frame
class HypergraphFrame(Frame):
    """A hypergraph: its name and ``[edge name, sorted vertices]`` pairs, in
    edge order — the search kernels iterate edges by index, so a reordered
    rebuild could walk the search space differently and break replay."""

    FORMAT = HYPERGRAPH_FORMAT
    name: str
    edges: list[tuple[str, list[str]]]


def hypergraph_to_dict(hypergraph: Hypergraph) -> dict:
    """Encode a hypergraph (name + ordered edge list) as plain JSON data."""
    edges = [(name, sorted(vertices)) for name, vertices in hypergraph.edges_as_dict().items()]
    return HypergraphFrame(name=hypergraph.name, edges=edges).to_dict()


def hypergraph_from_dict(payload: dict) -> Hypergraph:
    """Rebuild a hypergraph from :func:`hypergraph_to_dict` output."""
    frame = decode(payload, HypergraphFrame)
    edges = dict(frame.edges)
    if len(edges) != len(frame.edges):
        raise ParseError("hypergraph payload repeats an edge name")
    return Hypergraph(edges, name=frame.name)


@_frame
class TableFrame(Frame):
    """A table by columns: a schema, its row count and one list of JSON
    scalars per attribute.  The rows are in no order: a table is a set on
    both sides, so the sender neither sorts nor builds a row.  The count
    tells ``{()}`` from ``∅`` when the schema is empty."""

    schema: list[str]
    length: int
    columns: Columns

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.schema):
            raise ParseError(
                f"{len(self.columns)} columns do not match the {len(self.schema)}-attribute schema"
            )
        if not set(map(len, self.columns)) <= {self.length}:
            raise ParseError(f"a column does not hold the table's {self.length} rows")
        if not self.columns and self.length not in (0, 1):
            raise ParseError(f"a table without attributes holds 0 or 1 rows, not {self.length}")

    @classmethod
    def of(cls, relation, **fields) -> "TableFrame":
        """The frame of a :class:`~repro.query.relation.Relation`, by its
        column view (``fields``: a subclass's own fields)."""
        schema, length = list(relation.schema), len(relation)
        return cls(schema=schema, length=length, columns=relation.columns, **fields)

    def build(self, name: str):
        """The table as a :class:`~repro.query.relation.Relation`; a list or
        object value, or a repeated row, raises
        :class:`~repro.exceptions.ParseError`.  (The sender checks every
        value is a scalar; of JSON's values only lists and objects are
        unhashable, so the receiver's check is the set it builds.)"""
        try:  # no columns: ∅ or {()}, as the count says
            rows = frozenset(zip(*self.columns) if self.columns else [()] * self.length)
        except TypeError:
            raise ParseError("a column holds a value that is not a JSON scalar") from None
        if len(rows) != self.length:
            raise ParseError(f"the columns hold {len(rows)} distinct rows, not {self.length}")
        return _query().Relation.from_trusted_rows(name, self.schema, rows)


@_frame
class RelationFrame(TableFrame):
    """A named table of a shipped database."""

    name: str


@_frame
class DatabaseFrame(Frame):
    """A database: its relations or, path-backed, the file alone."""

    FORMAT = DATABASE_FORMAT
    path: str | None = None
    relations: list[RelationFrame] | None = None


def database_to_dict(database) -> dict:
    """Encode a :class:`~repro.query.database.Database` as plain JSON data.

    Only JSON-scalar values are supported (:class:`ParseError` otherwise);
    each relation ships by columns, in no order.  A path-backed database (a
    string ``path`` attribute, i.e. :class:`~repro.query.sqlgen.SQLDatabase`)
    ships as the *path* alone and the receiver reopens the file: its rows
    never cross the wire.
    """
    path = getattr(database, "path", None)
    if isinstance(path, str):
        return DatabaseFrame(path=path).to_dict()
    tables = map(database.get, database.relation_names())
    relations = [RelationFrame.of(table, name=table.name) for table in tables]
    return DatabaseFrame(relations=relations).to_dict()


@cache
def _query():
    """The ``repro.query`` package, imported on first use: it imports this module."""
    from .. import query

    return query


def database_from_dict(payload: dict):
    """Rebuild a database from :func:`database_to_dict` output."""
    frame, query = decode(payload, DatabaseFrame), _query()
    if frame.path is not None:
        return query.SQLDatabase(frame.path)
    database = query.Database()
    for table in frame.relations or ():
        database.add(table.build(table.name))
    return database


@_frame
class DecomposeRequestFrame(Frame):
    """A decomposition request.  The hypergraph travels by reference (its
    canonical hash): the parent ships the structure once per worker slot,
    not with every request that hits it."""

    FORMAT, KIND = REQUEST_FORMAT, "decompose"
    hypergraph: str
    k: int
    algorithm: str
    timeout: float | None = None
    options: dict[str, Scalar]


@_frame
class QueryRequestFrame(Frame):
    """A query request; ``database`` is the parent's shipping token of the
    separately shipped database (``executor`` defaults to the columnar arm
    for a caller that names none)."""

    FORMAT, KIND = REQUEST_FORMAT, "query"
    atoms: list[tuple[str, list[str]]]
    free_variables: list[str]
    query_name: str
    mode: str
    database: str
    timeout: float | None = None
    executor: str = "columnar"

    @property
    def query(self) -> ConjunctiveQuery:
        """The rebuilt query (its constructor raises ``QueryError``)."""
        atoms = tuple(Atom(relation, tuple(arguments)) for relation, arguments in self.atoms)
        return ConjunctiveQuery(atoms, tuple(self.free_variables), self.query_name)


def decompose_request_to_dict(*, canonical_hash: str, **fields) -> dict:
    """Encode a :class:`DecomposeRequestFrame` (keywords ``k``, ``algorithm``,
    ``timeout``, ``options``); a non-scalar option raises :class:`ParseError`."""
    return DecomposeRequestFrame(hypergraph=canonical_hash, **fields).to_dict()


def query_request_to_dict(*, query: ConjunctiveQuery, **fields) -> dict:
    """Encode a :class:`QueryRequestFrame` (keywords ``mode``, ``database``,
    ``timeout`` and optionally ``executor``)."""
    atoms = [(atom.relation, list(atom.arguments)) for atom in query.atoms]
    return QueryRequestFrame(
        atoms=atoms, free_variables=list(query.free_variables), query_name=query.name, **fields
    ).to_dict()


def service_request_from_dict(payload: dict) -> DecomposeRequestFrame | QueryRequestFrame:
    """Decode a service request payload into its frame."""
    return decode(payload, DecomposeRequestFrame, QueryRequestFrame)


@_frame
class DecompositionAnswerFrame(Frame):
    """A decomposition outcome, host-free (tree payload only)."""

    FORMAT, KIND = ANSWER_FORMAT, "decompose"
    algorithm: str
    k: int
    success: bool
    timed_out: bool
    elapsed: float
    statistics: SearchStatistics
    decomposition: TreeFrame | None = None


def decomposition_answer_to_dict(result: DecompositionResult) -> dict:
    """Encode a :class:`DecompositionAnswerFrame`."""
    tree = result.decomposition
    return DecompositionAnswerFrame(
        algorithm=result.algorithm, k=result.width_parameter, success=result.success,
        timed_out=result.timed_out, elapsed=result.elapsed, statistics=result.statistics,
        decomposition=None if tree is None else TreeFrame.of(tree),
    ).to_dict()  # fmt: skip


def decomposition_answer_from_dict(hypergraph: Hypergraph, payload: dict) -> DecompositionResult:
    """Rebuild a :class:`~repro.core.base.DecompositionResult` over the
    request's hypergraph from :func:`decomposition_answer_to_dict` output."""
    frame = decode(payload, DecompositionAnswerFrame)
    tree = frame.decomposition
    return DecompositionResult(
        algorithm=frame.algorithm, hypergraph=hypergraph, width_parameter=frame.k,
        success=frame.success, elapsed=frame.elapsed, timed_out=frame.timed_out,
        decomposition=None if tree is None else tree.build(hypergraph),
        statistics=frame.statistics,
    )  # fmt: skip


@_frame
class QueryAnswerFrame(Frame):
    """A query outcome, field for field a
    :class:`~repro.query.workload.QueryAnswer`; the answer table only when
    enumerating."""

    FORMAT, KIND = ANSWER_FORMAT, "query"
    mode: str
    boolean: bool
    count: int | None = None
    answers: TableFrame | None = None
    width: int
    plan_cached: bool
    plan_seconds: float
    execution_seconds: float
    statistics: dict[str, Scalar]


def query_answer_to_dict(*, answers, boolean: bool, **fields) -> dict:
    """Encode a :class:`QueryAnswerFrame`; ``answers`` is a
    :class:`~repro.query.relation.Relation` or ``None``."""
    table = None if answers is None else TableFrame.of(answers)
    return QueryAnswerFrame(answers=table, boolean=bool(boolean), **fields).to_dict()


def query_answer_from_dict(payload: dict):
    """Decode :func:`query_answer_to_dict` output into a
    :class:`~repro.query.workload.QueryAnswer` (an unknown ``mode`` raises
    :class:`~repro.exceptions.QueryError`)."""
    frame, query = decode(payload, QueryAnswerFrame), _query()
    values = dict(vars(frame), mode=query.AnswerMode.coerce(frame.mode))
    if frame.answers is not None:
        values["answers"] = frame.answers.build("answer")
    return query.workload.QueryAnswer(**values)


@_frame
class ErrorFrame(Frame):
    """A worker-side exception: type, module, message, formatted traceback."""

    FORMAT = ERROR_FORMAT
    type: str
    module: str
    message: str
    traceback: str


def error_to_dict(error: BaseException, traceback_text: str | None = None) -> dict:
    """Encode an :class:`ErrorFrame`."""
    kind, traceback = type(error), traceback_text or ""
    return ErrorFrame(
        type=kind.__name__, module=kind.__module__, message=str(error), traceback=traceback
    ).to_dict()


def error_from_dict(payload: dict) -> BaseException:
    """Rebuild an exception from :func:`error_to_dict` output.

    Only classes of this library and of ``builtins`` are instantiated (a
    payload must not name arbitrary classes); anything else, or a class that
    rejects a single message, degrades to a
    :class:`~repro.exceptions.ServiceError` naming the original type.  The
    worker's traceback is attached as ``remote_traceback`` either way.
    """
    frame = decode(payload, ErrorFrame)
    candidate = error = None
    if frame.module == "builtins":
        candidate = getattr(builtins, frame.type, None)
    elif frame.module.startswith("repro."):
        try:
            candidate = getattr(importlib.import_module(frame.module), frame.type, None)
        except ImportError:
            pass
    if isinstance(candidate, type) and issubclass(candidate, BaseException):
        try:
            error = candidate(frame.message)
        except Exception:
            pass
    if error is None:
        error = ServiceError(f"worker failed with {frame.module}.{frame.type}: {frame.message}")
    error.remote_traceback = frame.traceback  # type: ignore[attr-defined]
    return error
