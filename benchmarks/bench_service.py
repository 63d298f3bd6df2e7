"""Micro-benchmark: process-backend scaling on CPU-bound traffic (PR 9).

Every request is a *fresh* salted instance, so nothing coalesces and
nothing hits the memo: throughput is bounded by raw search compute, the
workload where ``backend="process"`` should scale with its worker count.
The perf ledger's ``serve_process`` workload runs two workers on a two-core
box and gates CPU seconds, not scaling; this arm measures 1 -> 4 workers and
asserts the >= 2x bar on hosts with at least four cores (measurements are
recorded either way).  The client-thread throughput arm that used to live
here is superseded by the ledger: see the supersession table in
``docs/benchmarks.md``.

Scale via ``REPRO_BENCH_SCALE`` (``tiny`` default): larger scales add
instances, not harder ones.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import write_result

from repro.hypergraph import Hypergraph, generators
from repro.pipeline.engine import DecompositionEngine
from repro.service import DecompositionService

SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")
CPU_TASKS = {"tiny": 24, "small": 48, "medium": 96}.get(SCALE, 24)
K = 2


def _fresh_instance(salt: str) -> Hypergraph:
    """A vertex-renamed clique(6): at k=2 a stable negative whose exhaustive
    search (~5-10 ms) does not depend on the salt, under a new canonical
    hash — i.e. a genuinely new cache key."""
    return Hypergraph(
        {
            name: [f"{vertex}~{salt}" for vertex in sorted(vertices)]
            for name, vertices in generators.clique(6).edges_as_dict().items()
        },
        name=f"clique6~{salt}",
    )


def _measure_cpu_bound(workers: int) -> tuple[float, float]:
    """Requests per second and elapsed seconds of one arm (pool start-up excluded)."""
    service = DecompositionService(
        backend="process", workers=workers, engine=DecompositionEngine()
    )
    try:
        instances = [_fresh_instance(f"cpu-w{workers}-i{n}") for n in range(CPU_TASKS)]
        start = time.perf_counter()
        tickets = [service.submit(hypergraph, K) for hypergraph in instances]
        for ticket in tickets:
            ticket.result(timeout=300)
        elapsed = time.perf_counter() - start
        assert service.stats().computations == CPU_TASKS  # nothing deduped by design
        return CPU_TASKS / elapsed, elapsed
    finally:
        service.shutdown(wait=True, cancel_pending=True)


def test_service_cpu_bound_backend_scaling_summary():
    """Process backend must scale >= 2x from 1 to 4 workers on CPU-bound load.

    The measurement always runs and lands in ``results/``; the scaling
    *assertion* needs real parallel hardware and is skipped below 4 cores
    (after the results are written).
    """
    lines = [
        f"decomposition-service CPU-bound process-backend scaling (scale={SCALE}, "
        f"{CPU_TASKS} fresh clique(6) instances, no dedup, k={K})"
    ]
    throughput: dict[int, float] = {}
    for workers in (1, 4):
        throughput[workers], elapsed = _measure_cpu_bound(workers)
        lines.append(
            f"  {workers} worker(s): {throughput[workers]:7.1f} req/s ({elapsed * 1000:7.1f} ms)"
        )
    speedup = throughput[4] / throughput[1]
    lines.append(f"  1 -> 4 workers scaling: {speedup:.2f}x")
    write_result("service_cpu_bound", "\n".join(lines))

    if (os.cpu_count() or 1) < 4:
        pytest.skip(
            "CPU-bound scaling assertion needs >= 4 cores "
            f"(host has {os.cpu_count()}); measurements were still recorded"
        )
    assert speedup >= 2.0, (
        f"process-backend throughput scaled only {speedup:.2f}x from "
        "1 to 4 workers on the CPU-bound workload (acceptance bar: >= 2x)"
    )
