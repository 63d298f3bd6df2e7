"""Deterministic, seeded fault injection behind named fault points.

The library's failure paths — catalog I/O, the engine decompose path, the
service worker pool, the process parallel backend — are instrumented with
*fault points*: named call sites that invoke :func:`fire`.  With no injector
installed (the production default) a fault point is one module-global read
and an immediate return; nothing is allocated, no lock is taken, and the
per-call cost is tens of nanoseconds (the perf ledger's ``faults.fire_ns``
row; ``benchmarks/bench_faults.py`` asserts that a warm pass's fault-point
traffic times that cost stays under 2 % of the pass).

An installed :class:`FaultInjector` matches each fired point against its
:class:`FaultRule` list and can

* **raise** an injected exception (``error=...``),
* **delay** the caller (``delay=...`` seconds), or
* **kill the process** (``kill=True`` → ``os._exit``; used to simulate an
  OOM-killed process worker — never use it on a thread of the main process).

Rules fire deterministically: ``times`` bounds how often a rule fires (so an
injected outage always ends and recovery paths run), ``skip`` lets the first
hits pass, ``probability`` draws from a :class:`random.Random` seeded at
injector construction, and ``where`` filters on the keyword context the
fault point supplies (e.g. ``fire("parallel.worker", slot=0, attempt=1)``).

Injectors cross process boundaries explicitly: :meth:`FaultInjector.spec`
returns a picklable description and :func:`install_spec` re-creates it in a
child process — the parallel backend ships the currently-installed spec to
its workers, so injection behaves identically under fork and spawn.

Example::

    from repro import faults

    rule = faults.FaultRule(point="catalog.get", error=RuntimeError("boom"), times=2)
    with faults.injected(rule, seed=7) as injector:
        ...  # the first two catalog reads raise RuntimeError("boom")
    injector.injected_counts()  # {"catalog.get": 2}
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from random import Random

__all__ = [
    "FaultRule",
    "FaultInjector",
    "fire",
    "install",
    "uninstall",
    "installed",
    "injected",
    "current_spec",
    "install_spec",
    "KILL_EXIT_CODE",
]

#: Exit status used by ``kill=True`` rules, chosen to be recognisable in
#: worker post-mortems (and distinct from signal-death negative codes).
KILL_EXIT_CODE = 17


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *where* it applies and *what* it does.

    ``point`` is an ``fnmatch`` pattern over fault-point names, so
    ``"catalog.*"`` targets every catalog operation.  Exactly one action is
    taken per firing, checked in order ``delay`` → ``kill`` → ``error``
    (a rule may combine a delay with an error).  The rule is inert once
    ``times`` firings have happened — schedules always terminate, which is
    what lets the chaos suite assert *recovery*, not just degradation.
    """

    point: str
    error: BaseException | type[BaseException] | None = None
    delay: float = 0.0
    kill: bool = False
    probability: float = 1.0
    times: int | None = None
    skip: int = 0
    where: tuple[tuple[str, object], ...] | dict | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.error is None and not self.kill and self.delay <= 0.0:
            raise ValueError("a FaultRule needs an error, a delay or kill=True")
        if isinstance(self.where, dict):
            # Normalise to a tuple so the rule stays hashable and picklable.
            object.__setattr__(self, "where", tuple(sorted(self.where.items())))

    def matches(self, point: str, context: dict) -> bool:
        if not fnmatchcase(point, self.point):
            return False
        if self.where:
            for key, value in self.where:
                if context.get(key) != value:
                    return False
        return True


@dataclass
class _RuleState:
    """Mutable per-injector bookkeeping for one rule."""

    hits: int = 0
    fires: int = 0


@dataclass
class _Spec:
    """Picklable description of an injector (rules are frozen dataclasses)."""

    seed: int
    rules: tuple[FaultRule, ...] = field(default_factory=tuple)


class FaultInjector:
    """A seeded rule engine evaluated at every fired fault point.

    Thread-safe: rule state and the RNG sit behind one lock.  Counters are
    observable while installed — ``point_hits`` records *every* fired point
    (whether or not a rule matched; the overhead benchmark uses this to
    count instrumentation traffic), ``injected_counts`` only actual
    injections.
    """

    def __init__(self, rules: tuple | list = (), seed: int = 0) -> None:
        self.seed = seed
        self.rules = tuple(rules)
        self._rng = Random(seed)
        self._lock = threading.Lock()
        self._states = [_RuleState() for _ in self.rules]
        self._hits: dict[str, int] = {}
        self._injected: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def fire(self, point: str, **context) -> None:
        """Evaluate ``point`` against the rules; may sleep, raise or exit."""
        action: FaultRule | None = None
        with self._lock:
            self._hits[point] = self._hits.get(point, 0) + 1
            for rule, state in zip(self.rules, self._states):
                if not rule.matches(point, context):
                    continue
                state.hits += 1
                if state.hits <= rule.skip:
                    continue
                if rule.times is not None and state.fires >= rule.times:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                state.fires += 1
                self._injected[point] = self._injected.get(point, 0) + 1
                action = rule
                break
        if action is None:
            return
        if action.delay > 0.0:
            time.sleep(action.delay)
        if action.kill:
            os._exit(KILL_EXIT_CODE)
        if action.error is not None:
            raise self._build_error(action.error, point)

    @staticmethod
    def _build_error(error, point: str) -> BaseException:
        if isinstance(error, BaseException):
            # Re-raising one shared instance from many sites would tangle
            # tracebacks; hand every firing a fresh twin instead.
            return type(error)(*error.args)
        if isinstance(error, type) and issubclass(error, BaseException):
            return error(f"injected fault at {point!r}")
        raise TypeError(f"FaultRule.error must be an exception or class, got {error!r}")

    # ------------------------------------------------------------------ #
    # observation
    # ------------------------------------------------------------------ #
    def point_hits(self) -> dict[str, int]:
        """Fault-point traffic seen while installed (injected or not)."""
        with self._lock:
            return dict(self._hits)

    def injected_counts(self) -> dict[str, int]:
        """Actual injections per fault point."""
        with self._lock:
            return dict(self._injected)

    def total_injected(self) -> int:
        with self._lock:
            return sum(self._injected.values())

    # ------------------------------------------------------------------ #
    # process-boundary plumbing
    # ------------------------------------------------------------------ #
    def spec(self) -> _Spec:
        """A picklable description re-creating this injector's *rules*.

        State (hit counts, RNG position) does not travel: a child process
        starts a fresh deterministic evaluation of the same schedule.
        """
        return _Spec(seed=self.seed, rules=self.rules)

    @classmethod
    def from_spec(cls, spec: _Spec) -> "FaultInjector":
        return cls(rules=spec.rules, seed=spec.seed)


# --------------------------------------------------------------------------- #
# the module-global hook the instrumented call sites use
# --------------------------------------------------------------------------- #
_installed: FaultInjector | None = None


def fire(point: str, **context) -> None:
    """The fault-point hook: free when no injector is installed."""
    injector = _installed
    if injector is not None:
        injector.fire(point, **context)


def install(injector: FaultInjector) -> FaultInjector | None:
    """Install ``injector`` globally; returns the previously installed one."""
    global _installed
    previous = _installed
    _installed = injector
    return previous


def uninstall() -> None:
    """Remove the installed injector (idempotent)."""
    global _installed
    _installed = None


def installed() -> FaultInjector | None:
    """The currently installed injector, or ``None``."""
    return _installed


@contextmanager
def injected(*rules: FaultRule, seed: int = 0):
    """Install a fresh injector for the duration of a ``with`` block.

    Restores whatever was installed before, so blocks nest.
    """
    injector = FaultInjector(rules=rules, seed=seed)
    previous = install(injector)
    try:
        yield injector
    finally:
        global _installed
        _installed = previous


def current_spec() -> _Spec | None:
    """Picklable spec of the installed injector (``None`` when disabled)."""
    injector = _installed
    return injector.spec() if injector is not None else None


def install_spec(spec: _Spec | None) -> None:
    """Re-create and install an injector from a spec (child-process entry)."""
    if spec is not None:
        install(FaultInjector.from_spec(spec))
