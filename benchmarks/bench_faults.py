"""Micro-benchmark: disabled fault-injection overhead on a warm workload (PR 8).

The fault points instrumenting the stack (``catalog.*``, ``engine.decompose``,
``service.worker``, ``parallel.worker``) stay in the code permanently, so the
*disabled* path — ``faults.fire(...)`` with no injector installed — must be
free for all practical purposes.  Three measurements establish that:

* **noop fire** — the per-call cost of a disabled ``faults.fire`` with
  representative context kwargs (one module-global read plus the call frame;
  the perf ledger tracks the same number as ``faults.fire_ns``);
* **warm workload** — a warm mixed workload (cached decompositions over a
  durable catalog + plan-cached query execution) timed as the serving hot
  path the points sit on;
* **traffic census** — the same pass run once under a *counting* injector
  whose single rule matches no real point, so every ``fire`` is tallied but
  nothing is injected.

The test asserts the acceptance bar analytically — fault-point traffic x
measured per-call disabled cost must stay under 2% of the warm pass — which
is robust to CI noise in a way a direct A/B of two sub-ms passes is not
(there is no fire-free build to diff against anyway).  No ledger workload
states this bound, and ROADMAP item 1 models its span-overhead bar on it.
"""

from __future__ import annotations

import os
import time

from conftest import write_result

from repro import faults, make_decomposer
from repro.hypergraph import generators
from repro.hypergraph.cq import parse_conjunctive_query
from repro.pipeline.engine import DecompositionEngine
from repro.query import QueryEngine, random_database_for_query

SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")
TUPLES = {"tiny": 800, "small": 2000, "medium": 4000}.get(SCALE, 800)
REPEAT = 4
NOOP_CALLS = 50_000

TEMPLATES = [
    ("chain", "ans(x, w) :- r(x,y), s(y,z), t(z,w)."),
    ("triangle", "ans(x) :- r(x,y), s(y,z), t(z,x)."),
]
INSTANCES = [(generators.cycle(8), 2), (generators.grid(2, 3), 2)]


def _engines(catalog_path):
    engine = DecompositionEngine(catalog=str(catalog_path))
    return engine, QueryEngine(engine=engine)


def _query_workload():
    pairs = []
    for index, (name, text) in enumerate(TEMPLATES):
        query = parse_conjunctive_query(text, name=name)
        database = random_database_for_query(
            query, domain_size=200, tuples_per_relation=TUPLES, seed=index
        )
        pairs.append((query, database))
    return pairs


_DECOMPOSER = make_decomposer("hybrid")


def _warm_pass(engine, query_engine, queries):
    """One pass of the warm mixed workload the fault points sit on."""
    for hypergraph, k in INSTANCES * REPEAT:
        result = engine.decompose(_DECOMPOSER, hypergraph, k)
        assert result.success
    for query, database in queries * REPEAT:
        report = query_engine.execute(query, database, mode="count")
        assert report.count >= 0


def _noop_fire_loop(calls=NOOP_CALLS):
    fire = faults.fire
    for index in range(calls):
        fire("bench.noop", slot=index, attempt=0)


# --------------------------------------------------------------------------- #
# the acceptance measurement
# --------------------------------------------------------------------------- #
def test_disabled_overhead_below_two_percent(tmp_path):
    """Fault-point traffic x disabled per-call cost < 2% of the warm pass."""
    engine, query_engine = _engines(tmp_path / "summary.db")
    queries = _query_workload()
    try:
        _warm_pass(engine, query_engine, queries)  # warm everything first

        # Census: count every fire the warm pass performs.  The injector's
        # one rule matches a point that does not exist, so the pass runs
        # fault-free while point_hits() tallies the real traffic.
        census = faults.FaultInjector(
            [faults.FaultRule(point="bench.nonexistent", error=RuntimeError)]
        )
        with faults.injected(*census.rules) as installed:
            _warm_pass(engine, query_engine, queries)
            fires = sum(installed.point_hits().values())
        assert faults.installed() is None

        # Disabled per-call cost, measured on the exact disabled path.
        start = time.perf_counter()
        _noop_fire_loop()
        per_call = (time.perf_counter() - start) / NOOP_CALLS

        # The warm pass itself, injection disabled (median of 5).
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            _warm_pass(engine, query_engine, queries)
            samples.append(time.perf_counter() - start)
        pass_seconds = sorted(samples)[len(samples) // 2]
    finally:
        engine.catalog.close()

    overhead_seconds = fires * per_call
    share = overhead_seconds / pass_seconds
    write_result(
        "faults_overhead",
        "\n".join(
            [
                f"disabled fault-injection overhead (scale={SCALE})",
                f"  fault-point fires per warm pass : {fires}",
                f"  disabled fire() per-call cost   : {per_call * 1e9:8.1f} ns",
                f"  warm pass (median of 5)         : {pass_seconds * 1e3:8.2f} ms",
                f"  analytic overhead share         : {share * 100:8.4f} %",
            ]
        ),
    )
    assert fires > 0, "the warm workload crossed no fault points"
    assert share < 0.02, (
        f"disabled fault points cost {share * 100:.3f}% of the warm pass "
        "(acceptance bar: < 2%)"
    )
