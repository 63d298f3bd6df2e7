"""Pins and hostile inputs for the codec's declared frames.

``tests/data/codec/`` holds one payload of every frame, one catalog row
(certificate, statistics and HIF columns) and certificates over the tiny
corpus, together with ``expected.json``: what the release that wrote each
payload decoded it to.  The files are pins — never regenerate them from
the current code.  ``database.json`` and ``query_answer.json`` hold their
tables by columns, re-pinned when the rows form was removed; they decode
to the entries the rows form decoded to.  A catalog file outlives the code
that wrote it, so the stored texts must re-encode byte for byte.

The hostile-frame test mutates each declared frame (dropped fields, wrong
types, wrong tags, non-dict payloads, non-scalar values, deep nesting) and
holds the decoders to a :class:`~repro.exceptions.ReproError` — never a
``TypeError``, ``KeyError``, ``AttributeError`` or ``RecursionError``.
"""

from __future__ import annotations

import copy
import json
import sqlite3
import typing
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from repro.catalog import DecompositionCatalog
from repro.core import codec
from repro.exceptions import ParseError, ReproError
from repro.hypergraph.io import from_hif, to_hif

DATA = Path(__file__).resolve().parent / "data" / "codec"
EXPECTED = json.loads((DATA / "expected.json").read_text())


def _load(name: str):
    return json.loads((DATA / name).read_text())


HOST = codec.hypergraph_from_dict(_load("hypergraph.json"))


# --------------------------------------------------------------------------- #
# summaries: what a decoded object is, in plain JSON data
# --------------------------------------------------------------------------- #
def _tree(decomposition) -> dict:
    nodes = [
        [sorted(node.bag), sorted(node.cover), len(node.children)]
        for node in decomposition.nodes()
    ]
    return {"class": type(decomposition).__name__, "width": decomposition.width, "nodes": nodes}


def _relation(relation) -> dict:
    return {"schema": list(relation.schema), "rows": sorted(map(repr, relation.tuples))}


def _result(result) -> dict:
    tree = result.decomposition
    return {
        "algorithm": result.algorithm,
        "k": result.width_parameter,
        "success": result.success,
        "timed_out": result.timed_out,
        "elapsed": result.elapsed,
        "statistics": result.statistics.as_dict(),
        "decomposition": None if tree is None else _tree(tree),
    }


def _request(frame) -> dict:
    if frame.KIND == "decompose":
        names = ("hypergraph", "k", "algorithm", "timeout", "options")
        return {"kind": frame.KIND, **{name: getattr(frame, name) for name in names}}
    query = frame.query
    return {
        "kind": frame.KIND,
        "atoms": [[atom.relation, list(atom.arguments)] for atom in query.atoms],
        "free_variables": list(query.free_variables),
        "name": query.name,
        "mode": frame.mode,
        "database": frame.database,
        "timeout": frame.timeout,
        "executor": frame.executor,
    }


def _answer(answer) -> dict:
    names = ("boolean", "count", "width", "plan_cached", "plan_seconds",
             "execution_seconds", "statistics")
    return {
        "mode": answer.mode.value,
        "answers": None if answer.answers is None else _relation(answer.answers),
        **{name: getattr(answer, name) for name in names},
    }


def _error(error) -> dict:
    return {
        "type": type(error).__name__,
        "module": type(error).__module__,
        "message": str(error),
        "remote_traceback": error.remote_traceback,
    }


SUMMARIES = {
    "hypergraph.json": lambda p: (lambda h: {
        "name": h.name,
        "edges": [[name, sorted(vs)] for name, vs in h.edges_as_dict().items()],
        "canonical_hash": h.canonical_hash(),
    })(codec.hypergraph_from_dict(p)),
    "decomposition.json": lambda p: _tree(codec.decomposition_from_dict(HOST, p)),
    "database.json": lambda p: (lambda db: {
        name: _relation(db.get(name)) for name in db.relation_names()
    })(codec.database_from_dict(p)),
    "decompose_request.json": lambda p: _request(codec.service_request_from_dict(p)),
    "query_request.json": lambda p: _request(codec.service_request_from_dict(p)),
    "decomposition_answer.json": lambda p: _result(codec.decomposition_answer_from_dict(HOST, p)),
    "decomposition_answer_failed.json": lambda p: _result(
        codec.decomposition_answer_from_dict(HOST, p)
    ),
    "query_answer.json": lambda p: _answer(codec.query_answer_from_dict(p)),
    "query_answer_count.json": lambda p: _answer(codec.query_answer_from_dict(p)),
    "error.json": lambda p: _error(codec.error_from_dict(p)),
}


@pytest.mark.parametrize("name", sorted(SUMMARIES))
def test_fixture_decodes_as_before(name):
    assert SUMMARIES[name](_load(name)) == EXPECTED[name]


def test_every_fixture_is_checked():
    assert set(EXPECTED) == set(SUMMARIES) | {"catalog_row.json"}


def test_catalog_row_keeps_its_bytes(tmp_path):
    row = _load("catalog_row.json")
    host = from_hif(row["hypergraph"])
    decomposition = codec.decomposition_from_json(host, row["certificate"])
    stats = codec.statistics_from_json(row["statistics"])
    expected = EXPECTED["catalog_row.json"]
    assert _tree(decomposition) == expected["decomposition"]
    assert stats.as_dict() == expected["statistics"]
    assert codec.decomposition_to_json(decomposition) == row["certificate"]
    assert codec.statistics_to_json(stats) == row["statistics"]

    # The catalog itself writes the same three columns and reads the row back.
    stats.record_stage("decompose", 0.25)  # timings never reach the file
    with DecompositionCatalog(tmp_path / "cat.db") as catalog:
        catalog.put(host, row["k"], ("fixture",), algorithm="hybrid", success=True,
                    decomposition=decomposition, stats=stats)
        catalog.flush()
        record = catalog.get(host, row["k"], ("fixture",))
    assert _tree(record.kind(host, record.root)) == expected["decomposition"]
    with sqlite3.connect(tmp_path / "cat.db") as connection:
        stored = connection.execute(
            "SELECT kind, certificate, statistics, hypergraph FROM entries"
        ).fetchone()
    assert stored == (row["kind"], row["certificate"], row["statistics"], row["hypergraph"])
    assert json.dumps(to_hif(host), sort_keys=True) == row["hypergraph"]


def test_tiny_corpus_certificates_re_encode_byte_for_byte():
    corpus = _load("tiny_certificates.json")
    assert corpus
    for entry in corpus:
        host = from_hif(entry["hypergraph"])
        decomposition = codec.decomposition_from_json(host, entry["certificate"])
        assert codec.decomposition_to_json(decomposition) == entry["certificate"], entry["name"]


# --------------------------------------------------------------------------- #
# hostile frames
# --------------------------------------------------------------------------- #
def _frames(cls=codec.Frame):
    for sub in cls.__subclasses__():
        yield sub
        yield from _frames(sub)


#: The ``/1`` pins' table form, rows where a table now holds columns.
ROWS_TABLE = {"schema": ["x", "z"], "rows": [[1, 3], [2, 1], [3, 2]]}

#: frame → (fixture holding one; path to it inside the payload; decoder).
CASES = {
    codec.NodeFrame: ("decomposition.json", ("root",),
                      lambda p: codec.decomposition_from_dict(HOST, p)),
    codec.TreeFrame: ("decomposition.json", (), lambda p: codec.decomposition_from_dict(HOST, p)),
    codec.HypergraphFrame: ("hypergraph.json", (), codec.hypergraph_from_dict),
    codec.TableFrame: ("query_answer.json", ("answers",), codec.query_answer_from_dict),
    codec.RelationFrame: ("database.json", ("relations", 3), codec.database_from_dict),
    codec.DatabaseFrame: ("database.json", (), codec.database_from_dict),
    codec.DecomposeRequestFrame: ("decompose_request.json", (), codec.service_request_from_dict),
    codec.QueryRequestFrame: ("query_request.json", (),
                              lambda p: codec.service_request_from_dict(p).query),
    codec.DecompositionAnswerFrame: ("decomposition_answer.json", (),
                                     lambda p: codec.decomposition_answer_from_dict(HOST, p)),
    codec.QueryAnswerFrame: ("query_answer.json", (), codec.query_answer_from_dict),
    codec.ErrorFrame: ("error.json", (), codec.error_from_dict),
}


def _nested(depth: int, leaf):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


def _deep_node(depth: int) -> dict:
    node = {"bag": [], "cover": [], "children": []}
    for _ in range(depth):
        node = {"bag": [], "cover": [], "children": [node]}
    return node


def test_every_declared_frame_has_a_hostile_case():
    assert set(_frames()) == set(CASES)


@pytest.mark.parametrize("frame", list(CASES), ids=lambda cls: cls.__name__)
def test_hostile_frames_raise_repro_errors(frame, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a mutated database path opens a file here
    fixture, path, decoder = CASES[frame]
    base = _load(fixture)
    hints = typing.get_type_hints(frame)

    def outcome(mutate):
        """Decode the fixture with its ``frame`` payload replaced by
        ``mutate(copy)``; the ReproError raised, or None."""
        payload = copy.deepcopy(base)
        holder, key = None, None
        target = payload
        for step in path:
            holder, key, target = target, step, target[step]
        mutated = mutate(target)
        if holder is None:
            payload = mutated
        else:
            holder[key] = mutated
        try:
            decoder(payload)
        except ReproError as exc:  # anything else escapes and fails the test
            return exc
        return None

    def with_field(name, value):
        return lambda target: {**target, name: value}

    assert outcome(lambda target: target) is None  # the fixture itself decodes

    for spec in fields(frame):
        dropped = outcome(lambda target, name=spec.name: {
            key: value for key, value in target.items() if key != name
        })
        if spec.default is MISSING:
            assert isinstance(dropped, ParseError), spec.name
        else:
            assert dropped is None, spec.name  # a sender may omit a defaulted field
        # ``[7]`` fits no annotation; ``true`` only ``bool``; deep nesting nothing.
        assert isinstance(outcome(with_field(spec.name, [7])), ParseError), spec.name
        if hints[spec.name] is not bool:
            assert isinstance(outcome(with_field(spec.name, True)), ParseError), spec.name
        assert isinstance(outcome(with_field(spec.name, _nested(2000, 1))), ParseError)
        for value in ("text", 7, 2.5, None, [], [["x"]], {}, {"x": [1]}):
            outcome(with_field(spec.name, value))  # decodes, or a ReproError

    if frame.FORMAT is not None:
        assert isinstance(outcome(with_field("format", "bogus/9")), ParseError)
        assert isinstance(outcome(with_field("format", [frame.FORMAT])), ParseError)
    if frame.KIND is not None:
        assert isinstance(outcome(with_field("kind", "mystery")), ParseError)
    # Every key of a payload is a tag or a field of its frame.
    names = {spec.name for spec in fields(frame)}
    tags = {"format": frame.FORMAT, "kind": frame.KIND}
    for key in ["undeclared"] + [tag for tag, value in tags.items() if value is None]:
        if key not in names:
            assert isinstance(outcome(with_field(key, 1)), ParseError), key
    # ``None`` is the legitimate "no rows" of a count or boolean answer.
    for value in ([], "payload", 3, [{}]) + ((None,) * (frame is not codec.TableFrame)):
        assert isinstance(outcome(lambda target, value=value: value), ParseError)

    for name, hint in hints.items():
        if hint == codec.Columns:
            bad_tables = {
                "ragged": lambda t: {**t, name: [t[name][0] + t[name][0][:1], *t[name][1:]]},
                "longer than length": lambda t: {**t, name: [c + c[:1] for c in t[name]]},
                "length too big": lambda t: {**t, "length": t["length"] + 1},
                "length too small": lambda t: {**t, "length": t["length"] - 1},
                "negative length": lambda t: {**t, "length": -1, name: [[] for _ in t[name]]},
                "a column short": lambda t: {**t, name: t[name][1:]},
                "a column over": lambda t: {**t, name: t[name] + t[name][:1]},
                "a repeated row": lambda t: {
                    **t, "length": t["length"] + 1, name: [c + c[:1] for c in t[name]]
                },
                "no attributes, two rows": lambda t: {**t, "schema": [], "length": 2, name: []},
                "no attributes, -1 rows": lambda t: {**t, "schema": [], "length": -1, name: []},
            }
            for value in ([1], {"a": 1}):
                bad_tables[repr(value)] = lambda t, v=value: {
                    **t, "length": t["length"] + 1, name: [[v] + c for c in t[name]]
                }
            for label, mutate in bad_tables.items():
                assert isinstance(outcome(mutate), ParseError), label
            for length in (0, 1):  # ∅ and {()}, told apart by the count alone
                empty = {"schema": [], "length": length, name: []}
                assert outcome(lambda target, table=empty: {**target, **table}) is None
        if hint == dict[str, codec.Scalar]:
            assert isinstance(outcome(with_field(name, {"x": [1]})), ParseError)
            assert isinstance(outcome(with_field(name, {"x": {"y": 1}})), ParseError)

    if frame is codec.NodeFrame:
        assert isinstance(outcome(lambda target: _deep_node(2000)), ParseError)
    if frame is codec.DatabaseFrame:  # a /1 database held its tables by rows
        relation = {"name": "r", **ROWS_TABLE}
        old = {"format": "repro-database/1", "relations": [relation]}
        assert isinstance(outcome(lambda target: old), ParseError)
        assert isinstance(outcome(with_field("format", "repro-database/1")), ParseError)
        assert isinstance(outcome(lambda target: {**old, "format": frame.FORMAT}), ParseError)
    if frame is codec.QueryAnswerFrame:  # a /1 enumerate answer held its table by rows
        assert isinstance(outcome(with_field("answers", ROWS_TABLE)), ParseError)
        # The table under a field name this frame does not have, ``answers`` empty:
        # read as an enumerate answer without answers unless the key is refused.
        moved = outcome(lambda t: {**t, "answers": None, "answer_columns": t["answers"]})
        assert isinstance(moved, ParseError)
