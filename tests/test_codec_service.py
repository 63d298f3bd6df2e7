"""Round trips for everything that crosses the process-backend boundary.

The process backend ships requests, answers, and worker errors between the
parent and its worker processes through :mod:`repro.core.codec` — plain
JSON-compatible dicts, never live objects.  These tests pin each payload
shape, the validation that rejects malformed payloads, and the ship-once
size property (a request references its fat hypergraph by hash instead of
embedding it).
"""

from __future__ import annotations

import json
import pickle
import sys
import threading

import pytest

from repro.core import codec
from repro.core.detk import DetKDecomposer
from repro.decomp import validate_hd
from repro.exceptions import ParseError, QueryError, ServiceError, TimeoutExceeded
from repro.hypergraph import generators
from repro.hypergraph.cq import parse_conjunctive_query
from repro.pipeline.engine import DecompositionEngine
from repro.query import QueryEngine, random_database_for_query
from repro.query.plan import AnswerMode

QUERY = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z), t(z,x).")


# --------------------------------------------------------------------------- #
# hypergraphs and databases
# --------------------------------------------------------------------------- #
def test_hypergraph_round_trip(cycle6):
    payload = codec.hypergraph_to_dict(cycle6)
    json.dumps(payload)  # plain JSON data, no live objects
    rebuilt = codec.hypergraph_from_dict(payload)
    assert rebuilt.name == cycle6.name
    assert rebuilt.edges_as_dict() == {
        name: set(vertices) for name, vertices in cycle6.edges_as_dict().items()
    }
    # Edge order is load-bearing (search replay walks edges by index).
    assert list(rebuilt.edges_as_dict()) == list(cycle6.edges_as_dict())
    assert rebuilt.canonical_hash() == cycle6.canonical_hash()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.update(format="bogus/9"),
        lambda p: p.update(edges=[["e", ["a"], "extra"]]),
        lambda p: p.update(edges=[[7, ["a"]]]),
        lambda p: p.update(edges=[["e", [1, 2]]]),
        lambda p: p.update(edges=[["e", ["a"]], ["e", ["b"]]]),
    ],
)
def test_hypergraph_payload_validation(cycle6, mutate):
    payload = codec.hypergraph_to_dict(cycle6)
    mutate(payload)
    with pytest.raises(ParseError):
        codec.hypergraph_from_dict(payload)


def test_database_round_trip():
    database = random_database_for_query(QUERY, domain_size=5, tuples_per_relation=20)
    payload = codec.database_to_dict(database)
    json.dumps(payload)
    rebuilt = codec.database_from_dict(payload)
    assert rebuilt.relation_names() == database.relation_names()
    for name in database.relation_names():
        original, copy = database.get(name), rebuilt.get(name)
        assert copy.schema == original.schema
        assert set(copy.tuples) == set(original.tuples)


def test_database_rejects_object_valued_tuples():
    from repro.query.database import Database
    from repro.query.relation import Relation

    database = Database()
    database.add(Relation.from_trusted_rows("r", ("a",), {(object(),)}))
    with pytest.raises(ParseError):
        codec.database_to_dict(database)


# --------------------------------------------------------------------------- #
# requests
# --------------------------------------------------------------------------- #
def test_decompose_request_round_trip(cycle6):
    payload = codec.decompose_request_to_dict(
        canonical_hash=cycle6.canonical_hash(),
        k=2,
        algorithm="detk",
        timeout=5.0,
        options={"hybrid": False, "seed": 7},
    )
    json.dumps(payload)
    decoded = codec.service_request_from_dict(payload)
    assert decoded.KIND == "decompose"
    assert decoded.hypergraph == cycle6.canonical_hash()
    assert decoded.k == 2
    assert decoded.algorithm == "detk"
    assert decoded.timeout == 5.0
    assert decoded.options == {"hybrid": False, "seed": 7}


def test_decompose_request_rejects_object_options(cycle6):
    with pytest.raises(ParseError):
        codec.decompose_request_to_dict(
            canonical_hash=cycle6.canonical_hash(),
            k=2,
            algorithm="hybrid",
            timeout=None,
            options={"metric": object()},
        )


def test_query_request_round_trip():
    payload = codec.query_request_to_dict(
        query=QUERY, mode="enumerate", database="db-1", timeout=None
    )
    json.dumps(payload)
    decoded = codec.service_request_from_dict(payload)
    assert decoded.KIND == "query"
    assert decoded.query == QUERY  # atoms, free variables, and name
    assert decoded.mode == "enumerate"
    assert decoded.database == "db-1"
    assert decoded.timeout is None


def test_unknown_request_kind_rejected(cycle6):
    payload = codec.decompose_request_to_dict(
        canonical_hash=cycle6.canonical_hash(),
        k=2,
        algorithm="detk",
        timeout=None,
        options={},
    )
    payload["kind"] = "mystery"
    with pytest.raises(ParseError):
        codec.service_request_from_dict(payload)


# --------------------------------------------------------------------------- #
# answers
# --------------------------------------------------------------------------- #
def test_decomposition_answer_round_trip(cycle6):
    result = DetKDecomposer().decompose_raw(cycle6, 2)
    assert result.success
    payload = codec.decomposition_answer_to_dict(result)
    json.dumps(payload)
    rebuilt = codec.decomposition_answer_from_dict(cycle6, payload)
    assert rebuilt.success is True
    assert rebuilt.timed_out is False
    assert rebuilt.algorithm == result.algorithm
    assert rebuilt.width_parameter == 2
    assert rebuilt.hypergraph is cycle6  # hosted on the request's instance
    assert rebuilt.decomposition.width == result.decomposition.width
    validate_hd(rebuilt.decomposition)
    assert (
        rebuilt.statistics.search_counters() == result.statistics.search_counters()
    )


def test_failed_decomposition_answer_round_trip(cycle6):
    result = DetKDecomposer().decompose_raw(cycle6, 1)
    assert not result.success
    rebuilt = codec.decomposition_answer_from_dict(
        cycle6, codec.decomposition_answer_to_dict(result)
    )
    assert rebuilt.success is False
    assert rebuilt.decomposition is None


def _answer_payload(result, mode) -> dict:
    return codec.query_answer_to_dict(
        mode=mode,
        answers=result.answers,
        boolean=result.boolean,
        count=result.count,
        width=result.width,
        plan_cached=result.plan_cached,
        plan_seconds=result.plan_seconds,
        execution_seconds=result.execution_seconds,
        statistics=result.execution.statistics.as_dict(),
    )


@pytest.mark.parametrize("mode", ["enumerate", "count", "boolean"])
def test_query_answer_round_trip(mode):
    engine = QueryEngine(engine=DecompositionEngine(cache=False))
    database = random_database_for_query(QUERY, domain_size=6, tuples_per_relation=30)
    result = engine.execute(QUERY, database, mode)
    payload = _answer_payload(result, mode)
    json.dumps(payload)
    decoded = codec.query_answer_from_dict(payload)
    assert decoded.mode == AnswerMode(mode)
    assert decoded.boolean == result.boolean
    assert decoded.count == result.count
    assert decoded.width == result.width
    assert decoded.statistics == result.execution.statistics.as_dict()
    if mode == "enumerate":
        assert decoded.answers.as_dicts() == result.answers.as_dicts()
        # The table crosses by columns: one list per attribute, no rows.
        table = payload["answers"]
        assert table["schema"] == ["x", "z"] and table["length"] == len(result.answers)
        assert len(table["columns"]) == 2
    else:
        assert decoded.answers is None


@pytest.mark.parametrize("s_rows, expected", [
    ({(2, 3)}, frozenset({()})),  # r(1,2) joins s(2,3): the empty tuple
    ({(5, 3)}, frozenset()),  # nothing joins: no answer at all
], ids=["one-empty-row", "no-rows"])
def test_zero_attribute_answers_round_trip(s_rows, expected):
    from repro.query.database import Database
    from repro.query.relation import Relation

    query = parse_conjunctive_query("ans() :- r(x,y), s(y,z).")
    database = Database()
    database.add(Relation("r", ("a", "b"), {(1, 2)}))
    database.add(Relation("s", ("a", "b"), s_rows))
    result = QueryEngine(engine=DecompositionEngine(cache=False)).execute(
        query, database, "enumerate"
    )
    assert result.answers.tuples == expected
    payload = _answer_payload(result, "enumerate")
    # No column tells {()} from ∅: the row count does.
    for wire in (pickle.loads(pickle.dumps(payload)), json.loads(json.dumps(payload))):
        decoded = codec.query_answer_from_dict(wire)
        assert decoded.answers.schema == ()
        assert decoded.answers.tuples == expected


def _enumerate_payload(answers) -> dict:
    return codec.query_answer_to_dict(
        mode="enumerate", answers=answers, boolean=bool(answers), count=len(answers), width=1,
        plan_cached=True, plan_seconds=0.0, execution_seconds=0.0, statistics={},
    )  # fmt: skip


def test_threads_encoding_one_fresh_answer_agree():
    # The column view is built on first encode and stored without a lock:
    # eight threads race to build it on one shared answer.
    from repro.query.relation import Relation

    rows = {(i, f"v{i % 97}", i * 0.5 if i % 3 else None) for i in range(20_000)}
    answers = Relation.from_trusted_rows("answer", ("a", "b", "c"), rows)
    start, payloads = threading.Barrier(8), [None] * 8

    def encode(slot: int) -> None:
        start.wait()
        payloads[slot] = _enumerate_payload(answers)

    threads = [threading.Thread(target=encode, args=(slot,)) for slot in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for payload in payloads:
        decoded = codec.query_answer_from_dict(pickle.loads(pickle.dumps(payload)))
        assert decoded.answers.schema == answers.schema
        assert decoded.answers.tuples == answers.tuples


def test_mutating_a_payload_leaves_the_next_encode_unchanged():
    from repro.query.relation import Relation

    answers = Relation.from_trusted_rows("answer", ("a", "b"), {(1, "x"), (2, "y")})
    first = _enumerate_payload(answers)
    columns = first["answers"]["columns"]
    columns[0].append(3)
    columns[1].clear()
    second = _enumerate_payload(answers)
    assert set(zip(*second["answers"]["columns"])) == answers.tuples
    assert codec.query_answer_from_dict(second).answers.tuples == answers.tuples


def test_query_answer_rejects_object_values():
    from repro.query.relation import Relation

    answers = Relation.from_trusted_rows("answer", ("a",), {(object(),)})
    with pytest.raises(ParseError):
        _enumerate_payload(answers)


# --------------------------------------------------------------------------- #
# errors
# --------------------------------------------------------------------------- #
def test_builtin_error_round_trip():
    payload = codec.error_to_dict(ValueError("bad input"), "Traceback: ...")
    json.dumps(payload)
    rebuilt = codec.error_from_dict(payload)
    assert type(rebuilt) is ValueError
    assert str(rebuilt) == "bad input"
    assert rebuilt.remote_traceback == "Traceback: ..."


@pytest.mark.parametrize("error", [QueryError("no"), TimeoutExceeded("slow")])
def test_library_error_round_trip(error):
    rebuilt = codec.error_from_dict(codec.error_to_dict(error, "tb"))
    assert type(rebuilt) is type(error)
    assert str(rebuilt) == str(error)
    assert rebuilt.remote_traceback == "tb"


def test_foreign_error_degrades_to_service_error():
    payload = codec.error_to_dict(ValueError("boom"), "tb")
    payload["module"] = "os.path"  # outside the builtins/repro.* whitelist
    payload["type"] = "join"
    rebuilt = codec.error_from_dict(payload)
    assert isinstance(rebuilt, ServiceError)
    assert "os.path.join" in str(rebuilt)
    assert "boom" in str(rebuilt)
    assert rebuilt.remote_traceback == "tb"


def test_unknown_repro_error_degrades_to_service_error():
    payload = {
        "format": codec.ERROR_FORMAT,
        "type": "NoSuchError",
        "module": "repro.exceptions",
        "message": "hm",
        "traceback": "",
    }
    rebuilt = codec.error_from_dict(payload)
    assert isinstance(rebuilt, ServiceError)
    assert "NoSuchError" in str(rebuilt)


# --------------------------------------------------------------------------- #
# ship-once size guard
# --------------------------------------------------------------------------- #
def test_request_size_is_independent_of_hypergraph_size():
    """A fat hypergraph must ship once per worker, not once per request.

    The request payload references the instance by canonical hash; only the
    separately shipped :func:`hypergraph_to_dict` payload grows with the
    instance.
    """
    small = generators.cycle(4)
    fat = generators.clique(40)

    def request_for(hypergraph):
        return codec.decompose_request_to_dict(
            canonical_hash=hypergraph.canonical_hash(),
            k=2,
            algorithm="detk",
            timeout=None,
            options={},
        )

    small_wire = len(pickle.dumps(request_for(small)))
    fat_wire = len(pickle.dumps(request_for(fat)))
    assert fat_wire == small_wire  # both carry a fixed-width hash reference

    # The structure itself dwarfs the request — shipping it per request
    # would multiply the boundary traffic by orders of magnitude.
    fat_structure = len(pickle.dumps(codec.hypergraph_to_dict(fat)))
    assert fat_structure > 10 * fat_wire
