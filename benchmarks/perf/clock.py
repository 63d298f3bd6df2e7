"""The gated clock: calibrated CPU seconds of the workload's process tree.

The box this ledger runs on is two cores of a shared host, and neither is
always ours nor always the same speed.  Measured on it, with nothing else
running in the VM:

* beside two busy neighbour processes a fixed loop took 0.108-0.216 s of
  wall time and 0.107-0.108 s of CPU time.  The kernel charges a task only
  for the time it was on a core; waiting in the run queue is not charged,
  and with paravirtual steal accounting neither is time the hypervisor took
  away.  So the clock is **CPU time**, :func:`tree_cpu`: this process (all
  its threads), the children it has reaped, and its live descendants — the
  parallel-search and process-backend workers.
* for stretches of seconds to minutes the *same* loop needs 1.5-1.8 times
  the CPU time, with no steal reported and wall/CPU at 1.00: the core itself
  runs slower (a neighbour on the sibling hyperthread, most likely).  Ten
  runs of unchanged code then spread by 20-60 % on any clock.  So the CPU
  time is **calibrated**: every 50 ms a sampler thread of the round runs
  :func:`calibration_slice`, a fixed piece of interpreter work, and the CPU
  seconds of each segment between two slices count times
  ``REFERENCE_SLICE_S`` over the mean of the two slices around it.  The
  unit stays seconds — on the reference box at full speed.
* the two cores change speed independently, and a slice vouches only for
  the core it runs on.  So the gated run keeps the whole process tree on
  one core (``run.py``).

The wall-clock numbers of the traced run's untraced rounds are reported
as ungated ``wall.*`` metrics, and ``calibration.speed`` says how fast the box
ran while they were taken.  For one caller doing CPU-bound work the clocks
agree on an idle, full-speed host; where they differ (sleeps, worker
hand-offs, real parallelism) the ``wall.*`` row is the one to read, on a
quiet machine.
"""

from __future__ import annotations

import os
import resource
import time
from time import thread_time

#: CPU seconds one calibration slice takes on the reference box (2-core
#: Xeon @ 2.10 GHz VM, Python 3.11) while its cores run at full speed.
REFERENCE_SLICE_S = 0.0014

_TABLE = {i * 7919 % 10007: i for i in range(5000)}
_ITEMS = [i * 2654435761 % 1000003 for i in range(512)]
_MASK = (1 << 256) - 1


def _slice() -> float:
    start = thread_time()
    total, bits, table, items = 0, 1, _TABLE, _ITEMS
    for i in range(5000):
        total += i * i % 7
        bits = ((bits << 5) ^ i) & _MASK
        key = i % 10007
        if key in table:
            total += table[key]
        total ^= items[i & 511]
    if bits & 1:
        total += bits.bit_count()
    return thread_time() - start


def calibration_slice() -> float:
    """CPU seconds the calling thread needs for a fixed piece of interpreter
    work (integer and 256-bit arithmetic, dict and list lookups; nothing is
    allocated that outlives an iteration) — a reading of how fast this core
    runs Python right now.  The work is done twice and the faster pass
    counts: the first finds the caches cold, and after a wait for workers
    the core half asleep."""
    return min(_slice(), _slice())


def _children(pid: int) -> list[int]:
    """Live children of ``pid`` (``/proc/<pid>/task/*/children``); none where
    the kernel does not list them."""
    found: list[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found += [int(child) for child in handle.read().split()]
    except (OSError, ValueError):
        pass
    return found


def _on_cpu(pid: int) -> float:
    """Seconds the live threads of ``pid`` have run (``schedstat``, ns exact)."""
    total = 0
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        pass
    return total / 1e9


def tree_cpu(live_children: bool = True) -> float:
    """CPU seconds spent so far by this process, its reaped children and
    (if asked: it costs a walk through ``/proc``) its live descendants."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time() + usage.ru_utime + usage.ru_stime
    if live_children:
        pending = _children(os.getpid())
        while pending:
            pid = pending.pop()
            total += _on_cpu(pid)
            pending += _children(pid)
    return total
