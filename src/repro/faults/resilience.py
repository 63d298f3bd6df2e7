"""Resilience primitives built over the fault-injection framework.

Two small, dependency-free building blocks shared by the supervised layers:

* :class:`RetryPolicy` — two retries with exponential backoff plus
  deterministic jitter; the catalog and the SQL executor wrap every SQLite
  operation in one, so transient errors heal without tripping anything.
* :class:`CircuitBreaker` — the classic three-state breaker.  Repeated
  failures *open* the circuit (callers stop touching the broken dependency
  and degrade); after a cooling-off interval a single *half-open* probe is
  allowed through; a successful probe *closes* the circuit again and the
  ``reattaches`` counter proves recovery happened.

Both are plain state machines: they decide, the caller acts.  Neither
sleeps on its own (the retry policy yields delays; the breaker compares
timestamps), which keeps them trivially testable with a fake clock.
"""

from __future__ import annotations

import threading
import time
from random import Random

__all__ = ["RetryPolicy", "CircuitBreaker"]

#: Retries a :class:`RetryPolicy` allows after the first failed try.
_MAX_RETRIES = 2
#: The first retry's delay in seconds; each later retry doubles it.
_BACKOFF_BASE = 0.01
#: Each delay is scaled by a random factor in ``[1, 1 + _JITTER]``.
_JITTER = 0.5
#: Consecutive failures that open a closed :class:`CircuitBreaker`.
_FAILURE_THRESHOLD = 3


class RetryPolicy:
    """Two retries with exponential backoff and jitter: ``0.01 * 2^attempt``
    seconds, each scaled by a factor in ``[1, 1.5]``.

    The factors come from a :class:`random.Random` seeded with 0, so every
    policy sleeps the same delays — the deterministic chaos suite relies on
    it.
    """

    def delays(self):
        """Yield one sleep duration per permitted retry."""
        rng = Random(0)
        for attempt in range(_MAX_RETRIES):
            yield _BACKOFF_BASE * 2**attempt * (1.0 + _JITTER * rng.random())

    def call(self, fn, *, retry_on=(Exception,), sleep=time.sleep):
        """Run ``fn()`` retrying on ``retry_on``; re-raises when exhausted."""
        delays = self.delays()
        while True:
            try:
                return fn()
            except retry_on:
                # next(..., None) rather than catching StopIteration: a bare
                # ``raise`` inside that handler would re-raise StopIteration,
                # not the caller's exception.
                delay = next(delays, None)
                if delay is None:
                    raise
                sleep(delay)


class CircuitBreaker:
    """Closed → open → half-open → closed, with counters proving each hop.

    * ``record_failure`` increments a consecutive-failure count; reaching
      three (or any failure while half-open) opens the circuit and stamps
      the time.
    * ``allow`` answers "may I touch the dependency?": always while closed;
      while open only once ``reset_interval`` has elapsed, which moves the
      breaker to half-open (that caller is the probe; concurrent callers
      are refused until the probe reports).
    * ``record_success`` closes the circuit; from half-open it also counts a
      ``reattach`` — the recovery the chaos suite asserts on.

    Thread-safe; ``clock`` is injectable for tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, reset_interval: float = 1.0, clock=time.monotonic) -> None:
        if reset_interval < 0:
            raise ValueError("reset_interval must be >= 0")
        self.reset_interval = reset_interval
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._opened_at = 0.0
        self._consecutive_failures = 0
        self.opens = 0
        self.probes = 0
        self.reattaches = 0
        self.failures = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self, *, force_probe: bool = False) -> bool:
        """Whether the caller may attempt the guarded operation now.

        From the open state, returns True exactly once per cooldown window
        (transitioning to half-open); ``force_probe=True`` skips the
        cooldown — the catalog's public ``probe()`` uses it.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if force_probe or self._clock() - self._opened_at >= self.reset_interval:
                    self._state = self.HALF_OPEN
                    self.probes += 1
                    return True
                return False
            # Half-open: a probe is already in flight; only a forced probe
            # (same caller retrying synchronously) may pass.
            if force_probe:
                self.probes += 1
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                self.reattaches += 1
            self._state = self.CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> bool:
        """Record one failure; returns True when this opened the circuit."""
        with self._lock:
            self.failures += 1
            self._consecutive_failures += 1
            should_open = self._state == self.HALF_OPEN or (
                self._state == self.CLOSED
                and self._consecutive_failures >= _FAILURE_THRESHOLD
            )
            if self._state == self.OPEN:
                # Late failure reports while already open just re-stamp the
                # cooldown so a flapping dependency does not probe-storm.
                self._opened_at = self._clock()
                return False
            if should_open:
                self._open_locked()
                return True
            return False

    def trip(self) -> None:
        """Open the circuit immediately (hard failure, no counting)."""
        with self._lock:
            if self._state != self.OPEN:
                self._open_locked()

    def _open_locked(self) -> None:
        self._state = self.OPEN
        self._opened_at = self._clock()
        self.opens += 1

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (feeds ``stats().health``)."""
        with self._lock:
            return {
                "state": self._state,
                "opens": self.opens,
                "probes": self.probes,
                "reattaches": self.reattaches,
                "failures": self.failures,
            }
