"""Bounded mappings with least-recently-used eviction.

Two flavours are provided:

* :class:`BoundedLRU` — the minimal single-threaded map shared by the
  per-search LRU sites of the library (the component splitter's memos in
  :mod:`repro.decomp.components`, the log-k search's splitter pool in
  :mod:`repro.core.logk`).  Deliberately tiny: no statistics, no locking;
  callers layer their own counting on top where they need it.
* :class:`ShardedLRU` — a thread-safe, lock-striped wrapper partitioning the
  key space over independent :class:`BoundedLRU` shards, each behind its own
  lock.  Concurrent callers hitting different shards never contend, which is
  what lets the serving layer (:mod:`repro.service`) drive the engine result
  cache, the compiled-plan cache and the per-database column stores from many
  threads at once.  Per-shard hit/miss/store/eviction counters make cache
  behaviour observable (:meth:`ShardedLRU.shard_stats`).

Example::

    >>> from repro.lru import ShardedLRU
    >>> cache = ShardedLRU(max_entries=64, num_shards=4)
    >>> cache.put("answer", 42)
    0
    >>> cache.get("answer")
    42
    >>> cache.stats().hits
    1
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from .counters import Counters

__all__ = ["BoundedLRU", "ShardStats", "ShardedLRU"]


class BoundedLRU:
    """An insertion-bounded key→value map; reads refresh recency."""

    __slots__ = ("max_entries", "_entries")

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        """Return the stored value (refreshing its recency), or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key, value) -> int:
        """Insert or overwrite, evicting the least-recently-used overflow.

        Returns the number of evicted entries (the engine's result cache
        counts them in its statistics).
        """
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        evicted = 0
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
            evicted += 1
        return evicted

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries


@dataclass
class ShardStats(Counters):
    """Traffic counters of one shard (or an aggregate over shards).

    The field order is relied on: positional construction is used.
    Instances returned by :meth:`ShardedLRU.stats` are point-in-time
    snapshots, not live views.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits as a fraction of lookups (0.0 when nothing was looked up)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ShardedLRU:
    """A thread-safe bounded LRU striped over independently locked shards.

    Keys are assigned to shards by ``hash(key)``; each shard is a private
    :class:`BoundedLRU` guarded by its own lock, so operations on different
    shards proceed concurrently and an operation only ever holds one lock
    (there is no global lock to convoy on).  Capacity is split evenly across
    the shards, which makes eviction per-shard-local: a hot shard evicts its
    own least-recently-used entries without touching the recency order of
    the others.  Because every shard holds at least one entry, the requested
    capacity is rounded **up** to the next multiple of ``num_shards``; the
    effective bound is published as :attr:`max_entries` (e.g. requesting
    ``max_entries=10, num_shards=8`` yields 8 shards of 2 = 16).  ``len``
    and :meth:`stats` aggregate over shards and are therefore only momentary
    snapshots under concurrent mutation.
    """

    __slots__ = ("max_entries", "num_shards", "_shards", "_locks", "_stats")

    def __init__(self, max_entries: int, num_shards: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        num_shards = min(num_shards, max_entries)
        per_shard = -(-max_entries // num_shards)  # ceil division
        self.max_entries = per_shard * num_shards
        self.num_shards = num_shards
        self._shards = [BoundedLRU(per_shard) for _ in range(num_shards)]
        self._locks = [threading.Lock() for _ in range(num_shards)]
        self._stats = [ShardStats() for _ in range(num_shards)]

    def _index(self, key) -> int:
        return hash(key) % self.num_shards

    def get(self, key):
        """Return the stored value (refreshing its recency), or ``None``."""
        index = self._index(key)
        with self._locks[index]:
            value = self._shards[index].get(key)
            if value is None:
                self._stats[index].misses += 1
            else:
                self._stats[index].hits += 1
            return value

    def put(self, key, value) -> int:
        """Insert or overwrite; returns the number of evicted entries."""
        index = self._index(key)
        with self._locks[index]:
            evicted = self._shards[index].put(key, value)
            self._stats[index].stores += 1
            self._stats[index].evictions += evicted
            return evicted

    def clear(self) -> None:
        for index in range(self.num_shards):
            with self._locks[index]:
                self._shards[index].clear()

    def __len__(self) -> int:
        total = 0
        for index in range(self.num_shards):
            with self._locks[index]:
                total += len(self._shards[index])
        return total

    def __contains__(self, key) -> bool:
        index = self._index(key)
        with self._locks[index]:
            return key in self._shards[index]

    def shard_stats(self) -> list[ShardStats]:
        """A snapshot of each shard's counters, in shard order."""
        snapshot = []
        for index in range(self.num_shards):
            with self._locks[index]:
                stats = self._stats[index]
                snapshot.append(
                    ShardStats(
                        hits=stats.hits,
                        misses=stats.misses,
                        evictions=stats.evictions,
                        stores=stats.stores,
                    )
                )
        return snapshot

    def stats(self) -> ShardStats:
        """Aggregate counters over all shards."""
        total = ShardStats()
        for index in range(self.num_shards):
            with self._locks[index]:
                total.merge(self._stats[index])
        return total
