"""Tests of the serving layer: QueryEngine, QueryWorkload and the plan cache."""

from __future__ import annotations

import pytest

from repro.core.width import smallest_width
from repro.exceptions import QueryError, SolverError, TimeoutExceeded
from repro.hypergraph import generators
from repro.hypergraph.cq import parse_conjunctive_query
from repro.pipeline.engine import DecompositionEngine, default_engine, set_default_engine
from repro.pipeline.registry import registry
from repro.query import (
    AnswerMode,
    QueryEngine,
    QueryWorkload,
    naive_join_query,
    random_database_for_query,
)


@pytest.fixture
def isolated_engine():
    engine = DecompositionEngine()
    yield engine


@pytest.fixture
def triangle():
    return parse_conjunctive_query("ans(x) :- r(x,y), s(y,z), t(z,x).")


@pytest.fixture
def triangle_db(triangle):
    return random_database_for_query(
        triangle, domain_size=5, tuples_per_relation=25, seed=11
    )


def test_plan_is_cached_per_signature_and_mode(isolated_engine, triangle, triangle_db):
    engine = QueryEngine(engine=isolated_engine)
    first = engine.execute(triangle, triangle_db)
    again = engine.execute(triangle, triangle_db)
    other_mode = engine.execute(triangle, triangle_db, mode="count")
    assert not first.plan_cached
    assert again.plan_cached
    assert not other_mode.plan_cached  # a mode is part of the plan
    assert again.planned is first.planned
    # ... and the warm pass takes its bags from the database's column store.
    assert first.execution.statistics.bags_reused == 0
    assert again.execution.statistics.bags_reused == first.execution.statistics.bags_built > 0
    naive = naive_join_query(triangle_db, triangle.atoms, triangle.free_variables)
    assert first.answers.as_dicts() == naive.as_dicts()
    assert other_mode.count == len(naive)


def test_identical_hypergraphs_share_decompositions(isolated_engine, triangle):
    # A query with different output variables has a different plan signature
    # (it misses the plan cache) but the identical hypergraph, so the
    # decomposition is served from the engine's canonical-hash result cache.
    engine = QueryEngine(engine=isolated_engine)
    other_head = parse_conjunctive_query("ans(y, z) :- r(x,y), s(y,z), t(z,x).")
    db = random_database_for_query(triangle, seed=1)
    engine.execute(triangle, db)
    hits_before = isolated_engine.cache.statistics.hits
    result = engine.execute(other_head, db)
    assert not result.plan_cached
    assert isolated_engine.cache.statistics.hits > hits_before
    naive = naive_join_query(db, other_head.atoms, other_head.free_variables)
    assert result.answers.as_dicts() == naive.as_dicts()


def test_workload_reports_cache_traffic(isolated_engine, triangle, triangle_db):
    engine = QueryEngine(engine=isolated_engine)
    workload = (
        QueryWorkload(triangle_db, engine=engine)
        .extend([triangle] * 4)
        .add(triangle, mode="boolean")
    )
    assert len(workload) == 5
    report = workload.run()
    assert report.queries_run == 5
    # First enumerate compiles, three hit; the boolean plan compiles fresh.
    assert report.plan_cache_misses == 2
    assert report.plan_cache_hits == 3
    assert all(r.boolean for r in report.results)
    assert report.total_seconds >= 0


def test_workload_modes_agree(isolated_engine, triangle, triangle_db):
    engine = QueryEngine(engine=isolated_engine)
    report = (
        QueryWorkload(triangle_db, engine=engine)
        .add(triangle, "enumerate")
        .add(triangle, "count")
        .add(triangle, "boolean")
        .run()
    )
    enumerate_result, count_result, boolean_result = report.results
    assert enumerate_result.mode is AnswerMode.ENUMERATE
    assert count_result.count == len(enumerate_result.answers)
    assert boolean_result.boolean == (len(enumerate_result.answers) > 0)


def test_column_store_persists_per_database(isolated_engine, triangle, triangle_db):
    engine = QueryEngine(engine=isolated_engine)
    store = engine.store_for(triangle_db)
    assert engine.store_for(triangle_db) is store
    engine.execute(triangle, triangle_db)
    # The base relations were encoded into the persistent store.
    assert store._atom_tables


def test_unsatisfiable_width_raises(isolated_engine):
    query = parse_conjunctive_query("ans(a) :- r(a,b), s(b,c), t(c,a).")
    database = random_database_for_query(query, seed=0)
    engine = QueryEngine(engine=isolated_engine, max_width=1)
    with pytest.raises(QueryError):
        engine.execute(query, database)


def test_configuration_key_resolves_aliases_and_defaults():
    def configuration(algorithm="hybrid", **options):
        return QueryEngine(algorithm, **options).configuration

    assert configuration() == configuration("log-k-decomp-hybrid")
    assert configuration() == configuration(threshold=400.0)  # the default, spelled out
    assert configuration() != configuration(threshold=7.0)
    assert configuration("logk") != configuration("detk")


def test_bad_algorithm_option_fails_at_construction():
    with pytest.raises(SolverError, match="timout"):
        QueryEngine(timout=5)
    with pytest.raises(SolverError, match="no-such-algorithm"):
        QueryEngine("no-such-algorithm")


def test_the_decomposer_is_built_once_per_engine(monkeypatch, isolated_engine, triangle):
    builds = []
    build = registry.build
    monkeypatch.setattr(registry, "build", lambda *a, **kw: builds.append(a) or build(*a, **kw))
    engine = QueryEngine(engine=isolated_engine)
    path = parse_conjunctive_query("ans(x) :- r(x,y), s(y,z).")
    for query in (triangle, path):
        assert engine.plan(query)[1] is False  # a plan-cache miss
    assert builds == [("hybrid",)]  # construction only; both plan misses reuse it
    # The plans were decomposed on the engine the query engine was given.
    assert isolated_engine.cache.statistics.misses > 0


def test_smallest_width_refuses_options_beside_a_built_decomposer():
    decomposer = registry.build("logk")
    assert smallest_width(generators.cycle(6), decomposer)[0] == 2
    with pytest.raises(SolverError, match="built decomposer"):
        smallest_width(generators.cycle(6), decomposer, timeout=1.0)


def test_auxiliary_cache_is_named_and_stable():
    engine = DecompositionEngine()
    cache = engine.auxiliary_cache("query-plans")
    assert engine.auxiliary_cache("query-plans") is cache
    assert engine.auxiliary_cache("other") is not cache
    cache.put("k", "v")
    assert cache.get("k") == "v"


def test_default_engine_reset_drops_plan_cache(triangle, triangle_db):
    previous = default_engine()
    try:
        set_default_engine(None)
        engine = QueryEngine()  # uses the process-wide engine
        engine.execute(triangle, triangle_db)
        assert len(default_engine().auxiliary_cache(QueryEngine.PLAN_CACHE_NAME)) == 1
        set_default_engine(None)
        assert len(default_engine().auxiliary_cache(QueryEngine.PLAN_CACHE_NAME)) == 0
    finally:
        set_default_engine(previous)


#: The 9-clique as a query: one binary atom per pair of variables, hw = 5.
CLIQUE9 = parse_conjunctive_query(
    "ans() :- "
    + ", ".join(f"e{i}_{j}(x{i},x{j})" for i in range(9) for j in range(i + 1, 9))
    + "."
)


def test_a_planning_timeout_is_reported_as_a_timeout():
    engine = QueryEngine(timeout=0.001, engine=DecompositionEngine(cache=False))
    with pytest.raises(TimeoutExceeded, match="time budget"):
        engine.plan(CLIQUE9)


def test_a_query_wider_than_max_width_is_refused():
    engine = QueryEngine(max_width=3, engine=DecompositionEngine(cache=False))
    with pytest.raises(QueryError, match="no hypertree decomposition of width <= 3"):
        engine.plan(CLIQUE9)
    assert QueryEngine(engine=DecompositionEngine(cache=False)).plan(CLIQUE9)[0].width == 5
