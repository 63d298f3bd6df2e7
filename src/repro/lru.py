"""Bounded mappings with least-recently-used eviction.

Two flavours are provided:

* :class:`BoundedLRU` — the minimal single-threaded map shared by the
  per-search LRU sites of the library (the component splitter's memos in
  :mod:`repro.decomp.components`, the log-k search's splitter pool in
  :mod:`repro.core.logk`).  Deliberately tiny: no statistics, no locking;
  callers layer their own counting on top where they need it.
* :class:`SharedLRU` — a :class:`BoundedLRU` behind one lock, with one
  :class:`CacheStatistics` record of its traffic.  It backs every cache
  that threads share: the engine result cache, the compiled-plan caches,
  the column stores' bag tables and the serving layer's result memo.  One
  lock is enough: only the thread backend shares these caches, CPython's
  GIL runs its threads one at a time, and an operation holds the lock for
  one dict access.

Example::

    >>> from repro.lru import SharedLRU
    >>> cache = SharedLRU(max_entries=64)
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
from dataclasses import dataclass, replace

from .counters import Counters

__all__ = ["BoundedLRU", "CacheStatistics", "SharedLRU"]


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
class CacheStatistics(Counters):
    """Hit/miss/eviction/store counters of one :class:`SharedLRU`.

    Instances returned by :meth:`SharedLRU.stats` are point-in-time
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


class SharedLRU:
    """A thread-safe bounded LRU: one :class:`BoundedLRU` behind one lock.

    ``max_entries`` is the exact bound, and eviction follows one recency
    order over every key.
    """

    __slots__ = ("max_entries", "_entries", "_lock", "_stats")

    def __init__(self, max_entries: int) -> None:
        self._entries = BoundedLRU(max_entries)
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._stats = CacheStatistics()

    def get(self, key):
        """Return the stored value (refreshing its recency), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._stats.misses += 1
            else:
                self._stats.hits += 1
            return value

    def put(self, key, value) -> int:
        """Insert or overwrite; returns the number of evicted entries."""
        with self._lock:
            evicted = self._entries.put(key, value)
            self._stats.stores += 1
            self._stats.evictions += evicted
            return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStatistics:
        """A snapshot of the traffic counters."""
        with self._lock:
            return replace(self._stats)
