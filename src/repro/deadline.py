"""One deadline for a run: an absolute instant, a cancel event, or both.

Every layer that can be told "time is up" — the separator searches, the
parallel coordinator and its forked workers, the optimal solver, both query
executors — polls the one :class:`Deadline` its public entry point built.
The throttling stays with each hot loop; this object only answers whether
the run must stop.  An unarmed run passes ``None`` instead of a deadline.
"""

from __future__ import annotations

import time

from .exceptions import TimeoutExceeded

__all__ = ["Deadline"]


class Deadline:
    """A ``time.monotonic()`` instant and/or a cancel event (anything with ``is_set()``).

    The instant is absolute, so a forked worker polls the same deadline as
    its coordinator: the monotonic clock is shared across the fork.
    """

    __slots__ = ("at", "cancel_event")

    def __init__(self, at: float | None = None, cancel_event=None) -> None:
        self.at = at
        self.cancel_event = cancel_event

    @classmethod
    def arm(cls, timeout: float | None = None, cancel_event=None) -> Deadline | None:
        """The deadline ``timeout`` seconds from now; ``None`` if nothing can fire."""
        if timeout is None and cancel_event is None:
            return None
        return cls(None if timeout is None else time.monotonic() + timeout, cancel_event)

    def reason(self) -> str | None:
        """The non-raising probe: ``"cancelled"``, ``"time budget exhausted"`` or None."""
        event = self.cancel_event
        if event is not None and event.is_set():
            return "cancelled"
        if self.at is not None and time.monotonic() > self.at:
            return "time budget exhausted"
        return None

    def check(self, what: str) -> None:
        """Raise :class:`TimeoutExceeded` ("<what> cancelled" / "<what> time budget exhausted")."""
        reason = self.reason()
        if reason is not None:
            raise TimeoutExceeded(f"{what} {reason}")

    def remaining(self) -> float | None:
        """Seconds left before the instant (never negative); None without one."""
        return None if self.at is None else max(0.0, self.at - time.monotonic())
