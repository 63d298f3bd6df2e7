"""Micro-benchmark: the on-disk SQL pushdown arm (PR 10).

``executor="sql"`` answering a SQLite file several times larger than the
in-memory working-set budget this benchmark grants the Python-resident
arms, without ever bulk-loading it — the SQL executor's reason to exist, and
a size relation no perf-ledger workload sets up (``query_sql`` runs on-disk
sources, but small ones).  The fixture asserts the size relation; the
pytest-benchmark pair asserts the analytically known count, cold (decompose
+ plan + compile + run) and warm (plan and SQL program cached, temp tables
recycled), and feeds the CI smoke artifact (``BENCH_legacy.json``).  The
eager-vs-columnar and semijoin-kernel arms that used to live here are
superseded by the ledger: see the table in ``docs/benchmarks.md``.

Scale via ``REPRO_BENCH_SCALE`` (``tiny`` default): larger scales grow the
database file.
"""

from __future__ import annotations

import os

import pytest

from repro.hypergraph.cq import parse_conjunctive_query
from repro.pipeline.engine import DecompositionEngine
from repro.query import QueryEngine, dump_database
from repro.query.database import Database
from repro.query.relation import Relation

SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")
REPEAT = 6

#: The on-disk arm must answer a database file *larger* than this budget;
#: the ``disk_database`` fixture asserts the size relation explicitly.
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
