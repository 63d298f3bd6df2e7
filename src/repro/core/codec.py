"""Stable JSON serialisation of decompositions and service payloads.

The durable catalog (:mod:`repro.catalog`) persists certificates across
processes, so the library needs a serialisation of its tree objects that is

* **stable** — the same decomposition always encodes to the same JSON text
  (collections are emitted in sorted order), so encoded certificates can be
  compared, hashed and deduplicated byte-wise;
* **host-free** — a :class:`~repro.decomp.decomposition.Decomposition` is a
  tree *over* a hypergraph; only the tree (bags, covers, kind) is encoded.
  Decoding takes the host hypergraph explicitly and re-resolves every edge
  and vertex name against it, so a payload can never smuggle in structure
  the host does not have;
* **versioned** — payloads carry a ``format`` tag checked on decode, so a
  future schema change fails loudly instead of mis-decoding old rows.

Decoding is deliberately paranoid: malformed payloads raise
:class:`~repro.exceptions.ParseError`, and loaded certificates are expected
to be re-validated by the caller (the catalog runs ``validate_hd`` on every
loaded decomposition before trusting it — see :mod:`repro.catalog`).

Round-trip example::

    >>> from repro import Hypergraph, hypertree_width
    >>> from repro.core.codec import decomposition_to_json, decomposition_from_json
    >>> h = Hypergraph({"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]})
    >>> _, hd = hypertree_width(h)
    >>> restored = decomposition_from_json(h, decomposition_to_json(hd))
    >>> type(restored) is type(hd) and restored.width == hd.width
    True
"""

from __future__ import annotations

import builtins
import importlib
import json

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
    "DECOMPOSITION_FORMAT",
    "HYPERGRAPH_FORMAT",
    "DATABASE_FORMAT",
    "REQUEST_FORMAT",
    "ANSWER_FORMAT",
    "ERROR_FORMAT",
    "kind_of",
    "class_for_kind",
    "decomposition_to_dict",
    "decomposition_from_dict",
    "decomposition_to_json",
    "decomposition_from_json",
    "hypergraph_to_dict",
    "hypergraph_from_dict",
    "database_to_dict",
    "database_from_dict",
    "decompose_request_to_dict",
    "query_request_to_dict",
    "service_request_from_dict",
    "decomposition_answer_to_dict",
    "decomposition_answer_from_dict",
    "query_answer_to_dict",
    "query_answer_from_dict",
    "error_to_dict",
    "error_from_dict",
]

DECOMPOSITION_FORMAT = "repro-decomposition/1"
HYPERGRAPH_FORMAT = "repro-hypergraph/1"
DATABASE_FORMAT = "repro-database/1"
REQUEST_FORMAT = "repro-service-request/1"
ANSWER_FORMAT = "repro-service-answer/1"
ERROR_FORMAT = "repro-service-error/1"

#: ``kind`` string (as stored in payloads) → decomposition class.  The plain
#: base class is included so a payload can be explicit about *not* claiming
#: any conditions.
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


def _require(payload: object, key: str, expected: type):
    if not isinstance(payload, dict):
        raise ParseError(f"expected a JSON object, got {type(payload).__name__}")
    try:
        value = payload[key]
    except KeyError:
        raise ParseError(f"payload is missing the {key!r} field") from None
    if not isinstance(value, expected):
        raise ParseError(
            f"payload field {key!r} must be {expected.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _string_list(payload: dict, key: str) -> list[str]:
    values = _require(payload, key, list)
    if not all(isinstance(value, str) for value in values):
        raise ParseError(f"payload field {key!r} must contain only strings")
    return values


# --------------------------------------------------------------------------- #
# decomposition trees
# --------------------------------------------------------------------------- #
def _node_to_dict(node: DecompositionNode) -> dict:
    return {
        "bag": sorted(node.bag),
        "cover": sorted(node.cover),
        "children": [_node_to_dict(child) for child in node.children],
    }


def _node_from_dict(payload: dict) -> DecompositionNode:
    return DecompositionNode(
        bag=frozenset(_string_list(payload, "bag")),
        cover=frozenset(_string_list(payload, "cover")),
        children=[_node_from_dict(child) for child in _require(payload, "children", list)],
    )


def decomposition_to_dict(decomposition: Decomposition) -> dict:
    """Encode the tree of a decomposition (bags, covers, kind) as plain JSON data.

    The host hypergraph is *not* part of the payload; pass it back to
    :func:`decomposition_from_dict` when decoding.
    """
    return {
        "format": DECOMPOSITION_FORMAT,
        "kind": decomposition.kind,
        "root": _node_to_dict(decomposition.root),
    }


def decomposition_from_dict(hypergraph: Hypergraph, payload: dict) -> Decomposition:
    """Rebuild a decomposition over ``hypergraph`` from an encoded payload.

    Raises :class:`~repro.exceptions.ParseError` for malformed payloads and
    :class:`~repro.exceptions.DecompositionError` when the tree references
    edges or vertices the host does not have (the class constructor checks).
    The semantic HD/GHD conditions are *not* checked here — run the
    :mod:`repro.decomp.validation` oracle on the result before trusting it.
    """
    if _require(payload, "format", str) != DECOMPOSITION_FORMAT:
        raise ParseError(f"unsupported decomposition payload format {payload['format']!r}")
    cls = class_for_kind(_require(payload, "kind", str))
    return cls(hypergraph, _node_from_dict(_require(payload, "root", dict)))


def decomposition_to_json(decomposition: Decomposition) -> str:
    """:func:`decomposition_to_dict` rendered as canonical (sorted-key) JSON."""
    return json.dumps(decomposition_to_dict(decomposition), sort_keys=True)


def decomposition_from_json(hypergraph: Hypergraph, text: str) -> Decomposition:
    """Decode :func:`decomposition_to_json` output over the given host."""
    return decomposition_from_dict(hypergraph, _load_json(text))


def _load_json(text: str):
    try:
        return json.loads(text)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"payload is not valid JSON: {exc}") from exc


# --------------------------------------------------------------------------- #
# process-boundary payloads (the serving layer's process backend)
# --------------------------------------------------------------------------- #
# Everything the process-backed DecompositionService ships between the
# parent and its worker processes is encoded here: hypergraphs and
# databases (shipped once per worker slot), requests (per task), answers
# and errors (per result).  The payloads are deliberately QueryPlan-free —
# plans are compiled worker-side from the shipped query, so the wire format
# never depends on executor internals.

#: JSON value types allowed inside shipped databases and answer relations.
#: ``bool`` is a subclass of ``int`` and rides along.
_SCALAR_TYPES = (str, int, float, bool, type(None))


def _require_scalar(value: object, where: str) -> object:
    if not isinstance(value, _SCALAR_TYPES):
        raise ParseError(
            f"{where} holds a non-JSON-scalar value of type "
            f"{type(value).__name__}: only str/int/float/bool/None values "
            "can cross the process boundary"
        )
    return value


def _check_format(payload: dict, expected: str, what: str) -> None:
    if _require(payload, "format", str) != expected:
        raise ParseError(f"unsupported {what} payload format {payload['format']!r}")


def hypergraph_to_dict(hypergraph: Hypergraph) -> dict:
    """Encode a hypergraph (name + ordered edge list) as plain JSON data.

    Edge order is preserved — the search kernels iterate edges by index, so
    a reconstruction that reordered them could walk the search space in a
    different order and break byte-identical replay.  Vertices within an
    edge are sets and are emitted sorted.
    """
    return {
        "format": HYPERGRAPH_FORMAT,
        "name": hypergraph.name,
        "edges": [
            [name, sorted(vertices)]
            for name, vertices in hypergraph.edges_as_dict().items()
        ],
    }


def hypergraph_from_dict(payload: dict) -> Hypergraph:
    """Rebuild a hypergraph from :func:`hypergraph_to_dict` output."""
    _check_format(payload, HYPERGRAPH_FORMAT, "hypergraph")
    edges: dict[str, list[str]] = {}
    for entry in _require(payload, "edges", list):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ParseError("hypergraph payload edges must be [name, vertices] pairs")
        name, vertices = entry
        if not isinstance(name, str):
            raise ParseError("hypergraph payload edge names must be strings")
        if not (isinstance(vertices, list) and all(isinstance(v, str) for v in vertices)):
            raise ParseError("hypergraph payload vertices must be lists of strings")
        if name in edges:
            raise ParseError(f"hypergraph payload repeats edge {name!r}")
        edges[name] = vertices
    return Hypergraph(edges, name=_require(payload, "name", str))


def database_to_dict(database) -> dict:
    """Encode a :class:`~repro.query.database.Database` as plain JSON data.

    Only JSON-scalar tuple values are supported (:class:`ParseError`
    otherwise) — object-valued tuples have no stable wire identity.  Rows
    are emitted in a deterministic order so equal databases encode to equal
    payloads.

    A path-backed database (one exposing a string ``path`` attribute, i.e.
    :class:`~repro.query.sqlgen.SQLDatabase`) ships as the *path* alone: the
    receiver reopens the file, so arbitrarily large databases never cross
    the wire row by row.
    """
    path = getattr(database, "path", None)
    if isinstance(path, str):
        return {"format": DATABASE_FORMAT, "path": path}
    relations = []
    for name in database.relation_names():
        relation = database.get(name)
        rows = []
        for row in relation.tuples:
            rows.append(
                [_require_scalar(value, f"relation {name!r}") for value in row]
            )
        rows.sort(key=repr)
        relations.append(
            {"name": name, "schema": list(relation.schema), "rows": rows}
        )
    return {"format": DATABASE_FORMAT, "relations": relations}


def database_from_dict(payload: dict):
    """Rebuild a database from :func:`database_to_dict` output."""
    from ..query.database import Database  # deferred: repro.query's package
    from ..query.relation import Relation  # import chain leads back here

    _check_format(payload, DATABASE_FORMAT, "database")
    if "path" in payload:
        from ..query.sqlgen import SQLDatabase  # deferred, same chain

        return SQLDatabase(_require(payload, "path", str))
    database = Database()
    for entry in _require(payload, "relations", list):
        name = _require(entry, "name", str)
        schema = tuple(_string_list(entry, "schema"))
        rows: set[tuple] = set()
        for row in _require(entry, "rows", list):
            if not isinstance(row, list) or len(row) != len(schema):
                raise ParseError(
                    f"relation {name!r}: row does not match the "
                    f"{len(schema)}-attribute schema"
                )
            rows.add(tuple(_require_scalar(value, f"relation {name!r}") for value in row))
        database.add(Relation.from_trusted_rows(name, schema, rows))
    return database


def decompose_request_to_dict(
    *,
    canonical_hash: str,
    k: int,
    algorithm: str,
    timeout: float | None,
    options: dict,
) -> dict:
    """Encode a decomposition request.

    The hypergraph travels by reference (its canonical hash): the parent
    ships the full structure once per worker slot, so a fat instance is not
    re-serialised for every request that hits it.  Options must be
    JSON-scalar — object-valued options never reach the process backend
    (the service rejects them at submit time).
    """
    for option, value in options.items():
        if not isinstance(value, _SCALAR_TYPES):
            raise ParseError(
                f"option {option!r} holds a non-primitive value of type "
                f"{type(value).__name__} and cannot cross the process boundary"
            )
    return {
        "format": REQUEST_FORMAT,
        "kind": "decompose",
        "hypergraph": canonical_hash,
        "k": k,
        "algorithm": algorithm,
        "timeout": timeout,
        "options": dict(options),
    }


def query_request_to_dict(
    *,
    query: ConjunctiveQuery,
    mode: str,
    database: str,
    timeout: float | None,
    executor: str = "columnar",
) -> dict:
    """Encode a query request; ``database`` is the parent's shipping token
    for the (separately shipped) database payload."""
    return {
        "format": REQUEST_FORMAT,
        "kind": "query",
        "atoms": [[atom.relation, list(atom.arguments)] for atom in query.atoms],
        "free_variables": list(query.free_variables),
        "query_name": query.name,
        "mode": mode,
        "database": database,
        "timeout": timeout,
        "executor": executor,
    }


def service_request_from_dict(payload: dict) -> dict:
    """Decode a service request payload into plain fields.

    Returns a dict with ``kind`` either ``"decompose"`` (fields
    ``hypergraph`` — the canonical hash reference —, ``k``, ``algorithm``,
    ``timeout``, ``options``) or ``"query"`` (fields ``query`` — a rebuilt
    :class:`~repro.hypergraph.cq.ConjunctiveQuery` —, ``mode``,
    ``database`` — the shipping token —, ``timeout``, ``executor`` —
    defaulting to ``"columnar"`` for payloads from older senders).
    """
    _check_format(payload, REQUEST_FORMAT, "service request")
    kind = _require(payload, "kind", str)
    timeout = payload.get("timeout")
    if timeout is not None and not isinstance(timeout, (int, float)):
        raise ParseError("request timeout must be a number or null")
    if kind == "decompose":
        options = _require(payload, "options", dict)
        for option, value in options.items():
            _require_scalar(value, f"option {option!r}")
        return {
            "kind": kind,
            "hypergraph": _require(payload, "hypergraph", str),
            "k": _require(payload, "k", int),
            "algorithm": _require(payload, "algorithm", str),
            "timeout": timeout,
            "options": options,
        }
    if kind == "query":
        atoms = []
        for entry in _require(payload, "atoms", list):
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ParseError("query payload atoms must be [relation, arguments] pairs")
            relation, arguments = entry
            if not isinstance(relation, str) or not (
                isinstance(arguments, list)
                and all(isinstance(a, str) for a in arguments)
            ):
                raise ParseError("query payload atoms must name string variables")
            atoms.append(Atom(relation, tuple(arguments)))
        query = ConjunctiveQuery(
            atoms=tuple(atoms),
            free_variables=tuple(_string_list(payload, "free_variables")),
            name=_require(payload, "query_name", str),
        )
        executor = payload.get("executor", "columnar")
        if not isinstance(executor, str):
            raise ParseError("query payload executor must be a string")
        return {
            "kind": kind,
            "query": query,
            "mode": _require(payload, "mode", str),
            "database": _require(payload, "database", str),
            "timeout": timeout,
            "executor": executor,
        }
    raise ParseError(f"unknown service request kind {kind!r}")


def decomposition_answer_to_dict(result: DecompositionResult) -> dict:
    """Encode a decomposition outcome, host-free (tree payload only)."""
    return {
        "format": ANSWER_FORMAT,
        "kind": "decompose",
        "algorithm": result.algorithm,
        "k": result.width_parameter,
        "success": result.success,
        "timed_out": result.timed_out,
        "elapsed": result.elapsed,
        "statistics": result.statistics.as_dict(),
        "decomposition": (
            decomposition_to_dict(result.decomposition)
            if result.decomposition is not None
            else None
        ),
    }


def decomposition_answer_from_dict(
    hypergraph: Hypergraph, payload: dict
) -> DecompositionResult:
    """Rebuild a :class:`~repro.core.base.DecompositionResult` over the
    request's hypergraph from :func:`decomposition_answer_to_dict` output."""
    _check_format(payload, ANSWER_FORMAT, "service answer")
    if _require(payload, "kind", str) != "decompose":
        raise ParseError("expected a decomposition answer payload")
    tree = payload.get("decomposition")
    return DecompositionResult(
        algorithm=_require(payload, "algorithm", str),
        hypergraph=hypergraph,
        width_parameter=_require(payload, "k", int),
        success=_require(payload, "success", bool),
        decomposition=(
            decomposition_from_dict(hypergraph, tree) if tree is not None else None
        ),
        elapsed=float(_require(payload, "elapsed", (int, float))),
        timed_out=_require(payload, "timed_out", bool),
        statistics=SearchStatistics.from_dict(_require(payload, "statistics", dict)),
    )


def query_answer_to_dict(
    *,
    mode: str,
    answers,
    boolean: bool,
    count: int | None,
    width: int,
    plan_cached: bool,
    plan_seconds: float,
    execution_seconds: float,
    statistics: dict,
) -> dict:
    """Encode a query outcome; ``answers`` is a
    :class:`~repro.query.relation.Relation` or ``None`` (non-enumerate
    modes)."""
    encoded_answers = None
    if answers is not None:
        rows = [
            [_require_scalar(value, "answer relation") for value in row]
            for row in answers.tuples
        ]
        rows.sort(key=repr)
        encoded_answers = {"schema": list(answers.schema), "rows": rows}
    return {
        "format": ANSWER_FORMAT,
        "kind": "query",
        "mode": mode,
        "boolean": bool(boolean),
        "count": count,
        "answers": encoded_answers,
        "width": width,
        "plan_cached": plan_cached,
        "plan_seconds": plan_seconds,
        "execution_seconds": execution_seconds,
        "statistics": dict(statistics),
    }


def query_answer_from_dict(payload: dict) -> dict:
    """Decode :func:`query_answer_to_dict` output into plain fields.

    ``answers`` comes back as a rebuilt
    :class:`~repro.query.relation.Relation` (or ``None``); ``mode`` stays a
    string — the caller coerces it to an
    :class:`~repro.query.plan.AnswerMode`.
    """
    from ..query.relation import Relation  # deferred (import cycle, see above)

    _check_format(payload, ANSWER_FORMAT, "service answer")
    if _require(payload, "kind", str) != "query":
        raise ParseError("expected a query answer payload")
    count = payload.get("count")
    if count is not None and not isinstance(count, int):
        raise ParseError("query answer count must be an integer or null")
    answers = None
    encoded = payload.get("answers")
    if encoded is not None:
        schema = tuple(_string_list(encoded, "schema"))
        rows: set[tuple] = set()
        for row in _require(encoded, "rows", list):
            if not isinstance(row, list) or len(row) != len(schema):
                raise ParseError("query answer rows must match the answer schema")
            rows.add(tuple(row))
        answers = Relation.from_trusted_rows("answer", schema, rows)
    return {
        "mode": _require(payload, "mode", str),
        "boolean": _require(payload, "boolean", bool),
        "count": count,
        "answers": answers,
        "width": _require(payload, "width", int),
        "plan_cached": _require(payload, "plan_cached", bool),
        "plan_seconds": float(_require(payload, "plan_seconds", (int, float))),
        "execution_seconds": float(
            _require(payload, "execution_seconds", (int, float))
        ),
        "statistics": _require(payload, "statistics", dict),
    }


def error_to_dict(error: BaseException, traceback_text: str | None = None) -> dict:
    """Encode a worker-side exception (type, message, formatted traceback)."""
    return {
        "format": ERROR_FORMAT,
        "type": type(error).__name__,
        "module": type(error).__module__,
        "message": str(error),
        "traceback": traceback_text or "",
    }


def error_from_dict(payload: dict) -> BaseException:
    """Rebuild an exception from :func:`error_to_dict` output.

    Only exception classes from this library and the standard ``builtins``
    module are reconstructed (a payload must not be able to instantiate
    arbitrary classes); anything else — including classes that reject a
    single-message constructor — degrades to a
    :class:`~repro.exceptions.ServiceError` carrying the original type
    name.  The worker's formatted traceback is attached as a
    ``remote_traceback`` attribute either way.
    """
    _check_format(payload, ERROR_FORMAT, "service error")
    type_name = _require(payload, "type", str)
    module_name = _require(payload, "module", str)
    message = _require(payload, "message", str)
    error: BaseException | None = None
    if module_name == "builtins":
        candidate = getattr(builtins, type_name, None)
        if isinstance(candidate, type) and issubclass(candidate, BaseException):
            try:
                error = candidate(message)
            except Exception:
                error = None
    elif module_name == "repro.exceptions" or module_name.startswith("repro."):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        candidate = getattr(module, type_name, None) if module else None
        if isinstance(candidate, type) and issubclass(candidate, BaseException):
            try:
                error = candidate(message)
            except Exception:
                error = None
    if error is None:
        error = ServiceError(f"worker failed with {module_name}.{type_name}: {message}")
    error.remote_traceback = _require(payload, "traceback", str)  # type: ignore[attr-defined]
    return error
