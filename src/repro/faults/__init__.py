"""Fault injection and resilience primitives (see ``docs/architecture.md``).

The package has three parts:

* :mod:`repro.faults.injector` — named fault points + a deterministic,
  seeded :class:`FaultInjector` (zero overhead while no injector is
  installed);
* :mod:`repro.faults.resilience` — :class:`RetryPolicy` (exponential
  backoff + jitter) and :class:`CircuitBreaker`, the building blocks of the
  supervised layers (catalog re-attach, worker respawn, poison quarantine);
* :mod:`repro.faults.supervise` — :class:`~repro.faults.supervise.WorkerProcess`,
  the one supervised child process (single-writer pipes, two-strike
  liveness, fresh pipes on respawn) under both the parallel decomposer and
  the process serving backend.

Import the package itself at instrumentation sites (``from repro import
faults`` … ``faults.fire("catalog.get")``) so the disabled-path check stays
a single module-global read.
"""

from .injector import (
    KILL_EXIT_CODE,
    FaultInjector,
    FaultRule,
    current_spec,
    fire,
    install,
    install_spec,
    installed,
    injected,
    uninstall,
)
from .resilience import CircuitBreaker, RetryPolicy

__all__ = [
    "KILL_EXIT_CODE",
    "FaultInjector",
    "FaultRule",
    "CircuitBreaker",
    "RetryPolicy",
    "fire",
    "install",
    "uninstall",
    "installed",
    "injected",
    "current_spec",
    "install_spec",
]
