"""Tests for the single-lock :class:`repro.lru.SharedLRU`."""

from __future__ import annotations

import threading

import pytest

from repro.core import LogKDecomposer
from repro.hypergraph import generators
from repro.lru import BoundedLRU, SharedLRU
from repro.pipeline.engine import DecompositionEngine
from repro.service import DecompositionService


def test_basic_get_put_contains():
    cache = SharedLRU(max_entries=16)
    assert cache.get("a") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert "a" in cache and "b" not in cache
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0


def test_max_entries_is_the_exact_bound():
    cache = SharedLRU(max_entries=10)
    for i in range(100):
        cache.put(i, i)
    assert cache.max_entries == 10 and len(cache) == 10
    stats = cache.stats()
    assert (stats.stores, stats.evictions) == (100, 90)


def test_eviction_follows_one_lru_order_over_every_key():
    cache = SharedLRU(max_entries=8)
    for i in range(8):
        cache.put(i, i)
    for i in range(4):  # refresh the four oldest
        cache.get(i)
    for i in range(8, 12):
        cache.put(i, i)
    assert [i for i in range(12) if i in cache] == [0, 1, 2, 3, 8, 9, 10, 11]


def test_recency_is_per_shard():
    cache = SharedLRU(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a"
    cache.put("c", 3)  # evicts "b", the least recently used
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3


def test_invalid_parameters():
    with pytest.raises(ValueError):
        SharedLRU(0)
    with pytest.raises(ValueError):
        BoundedLRU(0)


def test_concurrent_hammer_is_consistent():
    cache = SharedLRU(max_entries=256)
    errors: list[str] = []
    barrier = threading.Barrier(8)

    def worker(worker_id: int) -> None:
        barrier.wait(timeout=10)
        for round_ in range(400):
            key = (worker_id, round_ % 50)
            cache.put(key, (worker_id, round_ % 50))
            value = cache.get(key)
            # The key may have been evicted, but a present value must be
            # exactly what *some* put stored under that key.
            if value is not None and value != key:
                errors.append(f"wrong value {value!r} for {key!r}")
            cache.get((worker_id + 1, round_ % 50))  # another thread's keys

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert errors == []
    assert len(cache) <= cache.max_entries
    stats = cache.stats()
    assert stats.stores == 8 * 400
    assert stats.hits + stats.misses == 2 * 8 * 400  # one record, no lost update


def test_service_engine_cache_is_the_engine_cache_statistics():
    engine = DecompositionEngine()
    decomposer = LogKDecomposer(engine=engine)
    for _ in range(3):  # one store, two hits
        decomposer.decompose(generators.cycle(6), 2)
    with DecompositionService(workers=1, engine=engine) as service:
        assert service.submit(generators.cycle(8), 2).result(timeout=60).success
        snapshot = service.stats().engine_cache
    assert snapshot == engine.cache.statistics
    assert (snapshot.hits, snapshot.stores) == (2, 2)
