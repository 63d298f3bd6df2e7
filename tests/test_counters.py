"""The statistics records: their public shapes, then the laws of ``merge``.

``test_public_shapes`` pins every dict a reader outside the package sees —
the shapes are views and do not move when the records behind them do.
"""

from __future__ import annotations

import dataclasses

from repro import make_decomposer
from repro.catalog import CatalogStats
from repro.core.base import SearchStatistics
from repro.core.codec import decomposition_answer_to_dict
from repro.hypergraph import generators
from repro.lru import ShardStats
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
    "engine_cache_shards",
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
META_KEYS = ["pid", "slot", "attempt", "served", "engine_cache", "catalog", "faults_injected"]
CATALOG_KEYS = [
    "hits",
    "misses",
    "stores",
    "duplicate_stores",
    "validate_rejects",
    "errors",
    "retries",
    "lost_writes",
    "writer_respawns",
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

    meta = _worker_meta(0, 0, 0, DecompositionEngine(catalog=tmp_path / "meta.db"))
    assert list(meta) == META_KEYS
    assert list(meta["catalog"]) == CATALOG_KEYS
    assert _worker_meta(0, 0, 0, DecompositionEngine())["catalog"] is None

    result = make_decomposer("hybrid").decompose(generators.cycle(6), 2)
    frame = decomposition_answer_to_dict(result)["statistics"]
    assert set(frame) == {f.name for f in dataclasses.fields(SearchStatistics)}
    assert type(frame["stage_seconds"]) is dict and frame["stage_seconds"]
    assert frame["stage_seconds"] is not result.statistics.stage_seconds
    assert all(type(frame[name]) is int for name in frame if name != "stage_seconds")
    assert list(result.statistics.search_counters()) == SEARCH_COUNTER_KEYS

    assert list(CatalogStats().as_dict()) == CATALOG_KEYS
    assert [f.name for f in dataclasses.fields(ShardStats)] == [
        "hits",
        "misses",
        "evictions",
        "stores",
    ]
