"""The statistics records: their public shapes, then the laws of ``merge``.

``test_public_shapes`` pins every dict a reader outside the package sees —
the shapes are views and do not move when the records behind them do.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_decomposer
from repro.catalog import CatalogStats
from repro.core.base import SearchStatistics
from repro.core.codec import decomposition_answer_from_dict, decomposition_answer_to_dict
from repro.counters import Counters
from repro.exceptions import ParseError
from repro.faults import CircuitBreaker
from repro.hypergraph import generators
from repro.lru import CacheStatistics
from repro.pipeline.engine import DecompositionEngine
from repro.service import DecompositionService, ServiceStats
from repro.service.process_backend import _worker_meta

SERVICE_KEYS = [
    "submitted",
    "completed",
    "computations",
    "computations_by_kind",
    "coalesced",
    "fast_path_hits",
    "failed",
    "cancelled",
    "cancelled_running",
    "queue_depth",
    "inflight",
    "workers",
    "latency_p50_ms",
    "latency_p95_ms",
    "search_counters",
    "result_memo_hit_rate",
    "engine_cache_hit_rate",
    "catalog",
    "health",
]
HEALTH_KEYS = [
    "backend",
    "workers_alive",
    "workers_total",
    "worker_crashes",
    "worker_respawns",
    "tasks_requeued",
    "quarantined",
    "process_worker_respawns",
    "catalog_circuit",
]
CIRCUIT_KEYS = ["state", "opens", "probes", "reattaches", "retries", "memory_fallback"]
SLOT_KEYS = ["slot", "pid", "alive", "attempt", "dispatched", "completed", "engine_cache"]
META_KEYS = ["engine_cache", "catalog"]
CATALOG_KEYS = [
    "hits",
    "misses",
    "stores",
    "duplicate_stores",
    "validate_rejects",
    "errors",
    "retries",
    "lost_writes",
    "reattach_replays",
    "circuit_opens",
    "circuit_probes",
    "circuit_reattaches",
    "circuit_state",
    "memory_fallback",
]
SEARCH_COUNTER_KEYS = [
    "labels_tried",
    "enum_branches_pruned",
    "enum_domination_skips",
    "splitter_memo_hits",
    "splitter_memo_misses",
    "mask_table_builds",
    "bitset_memo_hits",
    "worker_respawns",
]


def test_public_shapes(tmp_path):
    assert list(ServiceStats().as_dict()) == SERVICE_KEYS
    for backend in ("thread", "process"):
        engine = DecompositionEngine(catalog=tmp_path / f"{backend}.db")
        with DecompositionService(workers=1, backend=backend, engine=engine) as service:
            assert service.submit(generators.cycle(6), 2).result(timeout=60).success
            stats = service.stats()
        health = stats.health
        assert list(stats.as_dict()) == SERVICE_KEYS
        assert list(stats.search_counters) == SEARCH_COUNTER_KEYS
        assert list(stats.as_dict()["catalog"]) == CATALOG_KEYS
        assert list(health["catalog_circuit"]) == CIRCUIT_KEYS
        if backend == "thread":
            assert list(health) == HEALTH_KEYS
        else:
            assert list(health) == HEALTH_KEYS + ["process_backend"]
            pool = health["process_backend"]
            assert list(pool) == ["workers", "respawns", "outstanding"]
            assert list(pool["workers"][0]) == SLOT_KEYS
            assert list(pool["workers"][0]["engine_cache"]) == ["hits", "misses"]
        engine.catalog.close()

    meta = _worker_meta(DecompositionEngine(catalog=tmp_path / "meta.db"))
    assert list(meta) == META_KEYS
    assert list(meta["catalog"]) == CATALOG_KEYS
    assert _worker_meta(DecompositionEngine())["catalog"] is None

    result = make_decomposer("hybrid").decompose(generators.cycle(6), 2)
    frame = decomposition_answer_to_dict(result)["statistics"]
    assert set(frame) == {f.name for f in dataclasses.fields(SearchStatistics)}
    assert type(frame["stage_seconds"]) is dict and frame["stage_seconds"]
    assert frame["stage_seconds"] is not result.statistics.stage_seconds
    assert all(type(frame[name]) is int for name in frame if name != "stage_seconds")
    assert list(result.statistics.search_counters()) == SEARCH_COUNTER_KEYS

    assert list(CatalogStats().as_dict()) == CATALOG_KEYS
    assert [f.name for f in dataclasses.fields(CacheStatistics)] == [
        "hits",
        "misses",
        "evictions",
        "stores",
    ]


# --------------------------------------------------------------------------- #
# the laws, over every record that inherits the mixin
# --------------------------------------------------------------------------- #
@dataclass
class _Nested(Counters):
    """A record holding another one: the recursive case no shipped record has."""

    inner: SearchStatistics = field(default_factory=SearchStatistics)
    seconds: float = 0.0
    seen: bool = False


STATES = (CircuitBreaker.CLOSED, CircuitBreaker.HALF_OPEN, CircuitBreaker.OPEN)
#: Integers and dyadic floats: every sum below is exact, so the laws are equalities.
_VALUES = {
    bool: st.booleans(),
    int: st.integers(0, 1 << 40),
    float: st.integers(0, 1 << 20).map(lambda n: n / 8),
    str: st.sampled_from(STATES),
}


def _records(cls):
    """A strategy for instances of ``cls``, built off the zero instance's values."""
    zero, values = cls(), {}
    for spec in dataclasses.fields(cls):
        default = getattr(zero, spec.name)
        if isinstance(default, Counters):
            values[spec.name] = _records(type(default))
        elif type(default) is dict:
            values[spec.name] = st.dictionaries(st.sampled_from("abc"), _VALUES[float], max_size=3)
        else:
            values[spec.name] = _VALUES[type(default)]
    return st.builds(cls, **values)


def _merged(*records):
    total = copy.deepcopy(records[0])
    for record in records[1:]:
        total.merge(copy.deepcopy(record))
    return total


def _mutable_ids(value):
    if isinstance(value, dict):
        yield id(value)
        for item in value.values():
            yield from _mutable_ids(item)
    elif isinstance(value, Counters):
        yield id(value)
        yield from _mutable_ids(vars(value))


def _record_classes():
    """Every record in the process, bar the ones other tests define in their bodies."""
    return [cls for cls in Counters.__subclasses__() if "<locals>" not in cls.__qualname__]


def test_every_record_is_discovered():
    names = {cls.__name__ for cls in _record_classes()}
    assert names >= {"SearchStatistics", "CatalogStats", "CacheStatistics", "ExecutionStatistics"}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_merge_laws_and_round_trip(data):
    for cls in _record_classes():
        x, y, z = (data.draw(_records(cls), label=cls.__name__) for _ in range(3))
        assert _merged(_merged(x, y), z) == _merged(x, _merged(y, z))  # associative
        assert _merged(x, y) == _merged(y, x)  # commutative
        assert _merged(cls(), x) == x == _merged(x, cls())  # the zero instance is the identity
        payload = x.as_dict()
        assert list(payload) == [spec.name for spec in dataclasses.fields(cls)]
        assert cls.from_dict(json.loads(json.dumps(payload))) == x
        assert not set(_mutable_ids(payload)) & set(_mutable_ids(x))
        rebuilt = cls.from_dict(payload)
        assert not set(_mutable_ids(vars(rebuilt))) & set(_mutable_ids(payload))
        assert cls.from_dict({**payload, "a_newer_writers_counter": 1}) == x  # ignored
        assert cls.from_dict({}) == cls()  # missing keys default


def test_a_field_without_a_derivable_rule_raises_on_first_use():
    @dataclass
    class Unruly(Counters):
        hits: int = 0
        tags: list = field(default_factory=list)

    with pytest.raises(TypeError, match="Unruly.tags"):
        Unruly().merge(Unruly())
    with pytest.raises(TypeError, match="Unruly.tags"):
        Unruly().as_dict()

    @dataclass
    class Ruled(Counters):
        tags: list = field(default_factory=list, metadata={"merge": lambda a, b: a + b})

    total = Ruled(["a"])
    total.merge(Ruled(["b"]))
    assert total.tags == ["a", "b"]


def test_circuit_state_merges_to_the_worst_state_in_any_order():
    for order in itertools.permutations(STATES):
        merged = CatalogStats()
        for state in order:
            merged.merge(CatalogStats(circuit_state=state, memory_fallback=state != "closed"))
        assert merged.circuit_state == CircuitBreaker.OPEN, order
        assert merged.memory_fallback is True
    for one, other in itertools.permutations(STATES[:2]):
        merged = CatalogStats(circuit_state=one)
        merged.merge(CatalogStats(circuit_state=other))
        assert merged.circuit_state == CircuitBreaker.HALF_OPEN


@pytest.mark.parametrize(
    "cls, payload",
    [
        (SearchStatistics, {"labels_tried": "many"}),
        (SearchStatistics, {"recursive_calls": None}),
        (SearchStatistics, {"labels_tried": True}),  # a bool is not a count
        (SearchStatistics, {"labels_tried": 1.5}),
        (SearchStatistics, {"stage_seconds": {"decompose": "slow"}}),
        (SearchStatistics, {"stage_seconds": [0.1]}),
        (SearchStatistics, ["labels_tried"]),
        (CatalogStats, {"memory_fallback": 1}),
        (CatalogStats, {"circuit_state": 0}),
        (_Nested, {"inner": {"labels_tried": "many"}}),
    ],
)
def test_from_dict_rejects_a_value_of_the_wrong_type(cls, payload):
    with pytest.raises(ParseError):
        cls.from_dict(payload)


def test_from_dict_takes_an_int_where_a_float_is_declared():
    assert _Nested.from_dict({"seconds": 2}).seconds == 2
    assert SearchStatistics.from_dict({"stage_seconds": {"lift": 1}}).stage_seconds == {"lift": 1}


def test_an_answer_frame_with_malformed_statistics_is_a_parse_error(cycle6):
    result = make_decomposer("detk").decompose_raw(cycle6, 2)
    frame = decomposition_answer_to_dict(result)
    assert decomposition_answer_from_dict(cycle6, frame).statistics == result.statistics
    frame["statistics"]["recursive_calls"] = None
    with pytest.raises(ParseError):
        decomposition_answer_from_dict(cycle6, frame)
