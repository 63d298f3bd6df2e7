"""Micro-benchmark: eager vs. plan-compiled columnar query evaluation (PR 4).

A fixed multi-query workload (four query shapes — chain, triangle, star,
cycle-with-tail — each repeated) is served three ways:

* **eager** — the tuple-at-a-time reference arm of
  :func:`repro.query.cq_eval.evaluate_query` (``executor="eager"``), which
  re-materialises atom relations and rebuilds every operator's tuple sets
  per query;
* **columnar cold** — a fresh :class:`repro.query.QueryEngine` serving each
  distinct query once: decomposition, plan compilation and dictionary
  encoding all included;
* **columnar warm** — the same engine serving the full workload again: plans
  come from the engine's LRU, bags and key indexes from the database's
  column store.

The summary test measures the warm-vs-eager speedup directly and asserts the
>= 3x acceptance bar of the plan-compiled engine on repeated workloads; the
pytest-benchmark pairs feed the CI smoke artifact (``BENCH_query.json``).

Scale via ``REPRO_BENCH_SCALE`` (``tiny`` default): larger scales grow the
database, not the query shapes.
"""

from __future__ import annotations

import os
import time

from itertools import compress
from pathlib import Path

import pytest

from conftest import write_result

from repro.hypergraph.cq import parse_conjunctive_query
from repro.pipeline.engine import DecompositionEngine, set_default_engine
from repro.query import (
    QueryEngine,
    dump_database,
    evaluate_query,
    random_database_for_query,
)
from repro.query.columnar import ColumnarRelation, _NodeState
from repro.query.database import Database
from repro.query.relation import Relation

SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")
TUPLES = {"tiny": 1500, "small": 3000, "medium": 6000}.get(SCALE, 1500)
DOMAIN = {"tiny": 300, "small": 500, "medium": 800}.get(SCALE, 300)
REPEAT = 6

TEMPLATES = [
    ("chain", "ans(x, w) :- r(x,y), s(y,z), t(z,w)."),
    ("triangle", "ans(x) :- r(x,y), s(y,z), t(z,x)."),
    ("star", "ans(c) :- a(c,x), b(c,y), d(c,z)."),
    ("cycle4tail", "ans(x, p) :- r(x,y), s(y,z), t(z,w), u(w,x), v(x,p)."),
]


def _workload():
    queries, databases = [], []
    for index, (name, text) in enumerate(TEMPLATES):
        query = parse_conjunctive_query(text, name=name)
        queries.append(query)
        databases.append(
            random_database_for_query(
                query, domain_size=DOMAIN, tuples_per_relation=TUPLES, seed=index
            )
        )
    return list(zip(queries, databases))


UNIQUE = _workload()
WORKLOAD = UNIQUE * REPEAT


def _run_eager():
    return [
        evaluate_query(query, database, executor="eager")
        for query, database in WORKLOAD
    ]


def test_workload_eager(benchmark):
    # One shared decomposition engine across rounds: the eager arm also
    # benefits from the decomposition result cache, so the comparison
    # isolates the *evaluation* layer.
    set_default_engine(DecompositionEngine())
    try:
        reports = benchmark(_run_eager)
    finally:
        set_default_engine(None)
    assert all(report.answers is not None for report in reports)


def test_workload_columnar_cold(benchmark):
    def cold_pass():
        engine = QueryEngine(engine=DecompositionEngine())
        return [engine.execute(query, database) for query, database in UNIQUE]

    results = benchmark(cold_pass)
    assert not any(result.plan_cached for result in results)


def test_workload_columnar_warm(benchmark):
    engine = QueryEngine(engine=DecompositionEngine())
    for query, database in UNIQUE:  # warm plans, bags and indexes
        engine.execute(query, database)

    results = benchmark(
        lambda: [engine.execute(query, database) for query, database in WORKLOAD]
    )
    assert all(result.plan_cached for result in results)
    assert any(result.execution.statistics.bags_reused for result in results)


# --------------------------------------------------------------------------- #
# the semijoin kernel pair: bytearray row flips vs. packed alive bitmask
# --------------------------------------------------------------------------- #
_SEMI_ROWS = {"tiny": 20_000, "small": 40_000, "medium": 80_000}.get(SCALE, 20_000)
_SEMI_TABLE = ColumnarRelation.from_rows(
    ("a", "b"), {(i % 997, i) for i in range(_SEMI_ROWS)}
)
# Source keys keep roughly half of the 997 key groups alive.
_SEMI_KEYS = {key for key in range(997) if key % 2 == 0}


def _semijoin_reference(table: ColumnarRelation, source_keys: set) -> int:
    """The pre-bitmask semijoin kernel (PR 4): per-row bytearray flips."""
    index = table.index_on(("a",))
    alive = bytearray(b"\x01") * table.nrows
    removed = 0
    for key, row_ids in index.items():
        if key not in source_keys:
            for row_id in row_ids:
                if alive[row_id]:
                    alive[row_id] = 0
                    removed += 1
    survivors = table.nrows - removed
    # Consume the mask the way the join stage does, so both arms pay their
    # full cost: compact one column through the selector mask.
    compacted = list(compress(table.column("b"), alive))
    assert len(compacted) == survivors
    return survivors


def _semijoin_bitmask(table: ColumnarRelation, source_keys: set) -> int:
    """The bitmask semijoin kernel: OR dead key-group masks, one AND-NOT."""
    state = _NodeState(table)
    dead = 0
    for key, mask in table.key_masks(("a",)).items():
        if key not in source_keys:
            dead |= mask
    state.kill(dead)
    compacted = list(compress(table.column("b"), state.selectors()))
    assert len(compacted) == state.live_count
    return state.live_count


def test_semijoin_kernel_bitmask_new(benchmark):
    survivors = benchmark(lambda: _semijoin_bitmask(_SEMI_TABLE, _SEMI_KEYS))
    assert survivors == _semijoin_reference(_SEMI_TABLE, _SEMI_KEYS)
    assert 0 < survivors < _SEMI_TABLE.nrows


def test_semijoin_kernel_bytearray_reference(benchmark):
    benchmark(lambda: _semijoin_reference(_SEMI_TABLE, _SEMI_KEYS))


# --------------------------------------------------------------------------- #
# the on-disk SQL pushdown arm (PR 10)
# --------------------------------------------------------------------------- #
#: The in-memory working-set budget this benchmark grants the Python-resident
#: arms.  The on-disk arm must answer a database file *larger* than this
#: budget without ever bulk-loading it — that is the SQL executor's reason to
#: exist — and the summary test asserts the size relation explicitly.
MEMORY_BUDGET_BYTES = int(os.environ.get("REPRO_BENCH_MEMORY_BUDGET", 256 * 1024))

_DISK_ROWS = {"tiny": 40_000, "small": 80_000, "medium": 160_000}.get(SCALE, 40_000)
_DISK_KEYS = 64  # join keys r maps onto
_DISK_FANOUT = 4  # answers per matched key, so count == _DISK_ROWS * _DISK_FANOUT

_DISK_QUERY = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z).", name="disk-pair")


@pytest.fixture(scope="session")
def disk_database(tmp_path_factory):
    """A SQLite file several times larger than the in-memory budget.

    ``r`` fans every padded string key onto one of ``_DISK_KEYS`` join
    values; ``s`` expands each join value into ``_DISK_FANOUT`` answers, so
    the expected count is exactly ``_DISK_ROWS * _DISK_FANOUT`` — analytic,
    no reference arm needed at this scale.
    """
    path = tmp_path_factory.mktemp("bench_sql") / "bench.sqlite"
    staging = Database()
    staging.add(
        Relation(
            "r",
            ("a", "b"),
            {(f"x{i:012d}", i % _DISK_KEYS) for i in range(_DISK_ROWS)},
        )
    )
    staging.add(
        Relation(
            "s",
            ("a", "b"),
            {
                (y, y * _DISK_FANOUT + j)
                for y in range(_DISK_KEYS)
                for j in range(_DISK_FANOUT)
            },
        )
    )
    disk = dump_database(staging, path)
    assert path.stat().st_size > 2 * MEMORY_BUDGET_BYTES
    return disk


def test_workload_sql_disk_cold(benchmark, disk_database):
    def cold_pass():
        engine = QueryEngine(engine=DecompositionEngine())
        return engine.execute(_DISK_QUERY, disk_database, "count", executor="sql")

    result = benchmark(cold_pass)
    assert result.count == _DISK_ROWS * _DISK_FANOUT


def test_workload_sql_disk_warm(benchmark, disk_database):
    engine = QueryEngine(engine=DecompositionEngine())
    engine.execute(_DISK_QUERY, disk_database, "count", executor="sql")

    results = benchmark(
        lambda: [
            engine.execute(_DISK_QUERY, disk_database, "count", executor="sql")
            for _ in range(REPEAT)
        ]
    )
    assert all(result.count == _DISK_ROWS * _DISK_FANOUT for result in results)
    assert all(result.plan_cached for result in results)


def test_sql_disk_summary(disk_database):
    """The acceptance measurement: answer a file bigger than the memory budget."""
    size = Path(disk_database.path).stat().st_size
    expected = _DISK_ROWS * _DISK_FANOUT

    engine = QueryEngine(engine=DecompositionEngine())
    start = time.perf_counter()
    cold = engine.execute(_DISK_QUERY, disk_database, "count", executor="sql")
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = [
        engine.execute(_DISK_QUERY, disk_database, "count", executor="sql")
        for _ in range(REPEAT)
    ]
    warm_seconds = (time.perf_counter() - start) / REPEAT

    assert cold.count == expected
    assert all(result.count == expected for result in warm)
    lines = [
        f"sql pushdown on-disk benchmark (scale={SCALE})",
        f"  database file      : {size / 1024:8.1f} KiB "
        f"({size / MEMORY_BUDGET_BYTES:.1f}x the {MEMORY_BUDGET_BYTES // 1024} KiB in-memory budget)",
        f"  rows / answers     : {_DISK_ROWS} base rows -> {expected} counted answers",
        f"  sql cold           : {cold_seconds * 1000:8.1f} ms (decompose + plan + compile + run)",
        f"  sql warm (per run) : {warm_seconds * 1000:8.1f} ms (plan and SQL program cached, temp tables recycled)",
    ]
    write_result("sql_pushdown", "\n".join(lines))
    assert size > MEMORY_BUDGET_BYTES, "the on-disk arm must exceed the memory budget"


def test_columnar_speedup_summary():
    """Direct eager-vs-warm measurement with the >= 3x acceptance assertion."""
    set_default_engine(DecompositionEngine())
    try:
        start = time.perf_counter()
        eager_reports = _run_eager()
        eager_seconds = time.perf_counter() - start
    finally:
        set_default_engine(None)

    engine = QueryEngine(engine=DecompositionEngine())
    start = time.perf_counter()
    cold_results = [engine.execute(query, database) for query, database in UNIQUE]
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm_results = [engine.execute(query, database) for query, database in WORKLOAD]
    warm_seconds = time.perf_counter() - start

    # Both arms must agree answer-for-answer before any speed claim counts.
    for (query, _), eager_report, warm_result in zip(
        WORKLOAD, eager_reports, warm_results
    ):
        assert eager_report.answers.as_dicts() == warm_result.answers.as_dicts(), query.name
    assert len(cold_results) == len(UNIQUE)

    speedup = eager_seconds / warm_seconds
    lines = [
        f"query-engine workload benchmark (scale={SCALE}, "
        f"{len(WORKLOAD)} queries = {len(UNIQUE)} shapes x {REPEAT})",
        f"  eager reference    : {eager_seconds * 1000:8.1f} ms",
        f"  columnar cold pass : {cold_seconds * 1000:8.1f} ms ({len(UNIQUE)} queries, plans compiled)",
        f"  columnar warm      : {warm_seconds * 1000:8.1f} ms",
        f"  warm speedup       : {speedup:.2f}x",
    ]
    write_result("query_engine", "\n".join(lines))
    assert speedup >= 3.0, f"columnar warm speedup {speedup:.2f}x below the 3x bar"
