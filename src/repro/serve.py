"""Command-line smoke driver for the concurrent serving layer.

Usage::

    python -m repro.serve --selftest [--backend thread|process]
                          [--executor columnar|sql] [--clients 8]
                          [--repeats 3] [--catalog my.db]
                          [--chaos [--chaos-seed N]]

``--selftest`` hammers a fresh :class:`~repro.service.DecompositionService`
from several client threads with a duplicate-heavy mix of decomposition and
query requests, then verifies the serving invariants end to end:

* every decomposition answer matches the known width of its instance, and
  every produced certificate passes the independent ``validate_hd`` oracle;
* coalescing happened (in-flight dedup counter > 0) and the expensive
  search ran at most once per distinct request key;
* the three query answer modes agree with each other;
* the pool shuts down cleanly (no deadlock, bounded join).

The service runs four workers.  Exit status 0 means every check passed;
the output is a human-readable summary.

``--catalog PATH`` opens (or creates) a durable
:class:`~repro.catalog.DecompositionCatalog` behind the engine's result
cache: the selftest's decided outcomes are persisted, a second run with the
same catalog answers them from disk instead of recomputing (the report
shows the L2 hit/store counters), and the file can be inspected with
``python -m repro.catalog list PATH``.

``--chaos [--chaos-seed N]`` runs the same scenario under a seeded,
*bounded* fault schedule (see :mod:`repro.faults`): transient-then-persistent
catalog errors that trip the circuit breaker, service-worker crashes below
the poison threshold (3), OOM-killed process workers in the parallel backend,
and random dispatch delays.  Every injected outage ends (rule ``times``
budgets), so on top of the normal invariants the chaos run asserts
*recovery*: answers byte-identical to a fault-free run, exactly-once
memoization intact, the catalog re-attached (circuit closed again), at
least one worker crash survived and at least one process worker respawned,
and a clean bounded shutdown.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
from collections.abc import Sequence
from pathlib import Path
from random import Random

from . import faults
from .core.codec import decomposition_to_json
from .decomp.validation import validate_hd
from .hypergraph import generators
from .hypergraph.cq import parse_conjunctive_query
from .pipeline.engine import DecompositionEngine
from .pipeline.registry import registry
from .query.database import random_database_for_query
from .query.plan import EXECUTORS
from .service import DecompositionService

__all__ = ["main", "run_selftest"]

#: (instance factory, k, expected decision) — widths are pinned by the
#: tier-1 known-width tests, so a wrong answer here is a serving bug.
SELFTEST_INSTANCES = (
    (lambda: generators.cycle(6), 2, True),
    (lambda: generators.cycle(10), 2, True),
    (lambda: generators.grid(2, 3), 2, True),
    (lambda: generators.clique(5), 3, True),
    (lambda: generators.cycle(8), 1, False),
)

SELFTEST_QUERY = "ans(x, z) :- r(x,y), s(y,z), t(z,x)."

#: The service's pool size in every selftest.
SELFTEST_WORKERS = 4

#: The chaos run's parallel-backend probe: a request forced through the
#: process backend so an injected worker kill (and the supervised respawn)
#: is actually exercised.  ``hybrid=False`` keeps its search deterministic
#: enough to decide correctly from any surviving partition.
CHAOS_PARALLEL_PROBE = (lambda: generators.cycle(10), 2, True)


def chaos_rules(seed: int, backend: str = "thread") -> list:
    """The seeded, bounded fault schedule of a ``--chaos`` run.

    Every rule's budget (``times``) is finite, so each injected outage ends
    and the recovery paths — catalog circuit re-attach, worker revival,
    process respawn — always get their turn; that is what lets the chaos
    invariants assert *recovery*, not merely degradation.

    The schedule is calibrated so no single task can accumulate the
    service's poison threshold of 3 crashes.  Both backends run the one worker
    loop, so the ``service.worker`` dispatch crash fires in the same place
    on both, and its whole budget can land on one task (a requeued task
    passes the point again).  Under the process backend the
    ``service.process`` kill adds at most one more crash to that task: its
    key owns one slot, whose first-generation worker dies with the request
    in hand, and the requeue lands on the respawned attempt-1 worker, which
    the rule spares.  2 + 1 would reach the threshold, so the dispatch-crash
    budget is 1 there (1 + 1 < 3) and 2 under the thread backend, where the
    kill point never fires.
    """
    import sqlite3

    rng = Random(seed)
    transient = sqlite3.OperationalError("chaos: disk I/O error")
    return [
        # Enough consecutive read failures to exhaust the retry policy and
        # open the catalog's circuit, plus a few writes failing around it.
        faults.FaultRule(point="catalog.get", error=transient, times=rng.randint(4, 8)),
        faults.FaultRule(point="catalog.put", error=transient, times=rng.randint(1, 3)),
        # One store blows up unexpectedly: the write is lost, the caller never sees it.
        faults.FaultRule(
            point="catalog.store", error=RuntimeError("chaos: store hiccup"), times=1
        ),
        # Random short stalls shake up the dispatch interleaving.
        faults.FaultRule(
            point="service.worker",
            delay=0.001 + 0.004 * rng.random(),
            probability=0.2,
            times=20,
        ),
        faults.FaultRule(
            point="engine.decompose",
            delay=0.001 + 0.004 * rng.random(),
            probability=0.1,
            times=10,
        ),
        # Worker crashes — deliberately below the default poison threshold
        # (3) even when stacked with a process-worker kill on one key, so
        # every request must still end in a served answer, never a
        # quarantine.
        faults.FaultRule(
            point="service.worker",
            error=RuntimeError("chaos: dispatch crash"),
            times=2 if backend == "thread" else 1,
            skip=rng.randint(0, 5),
        ),
        # Every first-attempt process worker is OOM-killed; the respawned
        # replacements (attempt 1) decide the parallel probe.
        faults.FaultRule(point="parallel.worker", kill=True, where={"attempt": 0}),
        # Same treatment for the serving layer's own worker processes
        # (inert under the thread backend, where the point never fires):
        # each first-generation worker dies at its first request, sending
        # the request down the requeue path and forcing a slot respawn.
        faults.FaultRule(point="service.process", kill=True, where={"attempt": 0}),
    ]


def run_selftest(
    clients: int = 8,
    repeats: int = 3,
    catalog: str | None = None,
    chaos_seed: int | None = None,
    backend: str = "thread",
    executor: str = "columnar",
) -> tuple[bool, str, dict]:
    """Run the concurrent smoke scenario; returns (ok, report text, stats dict).

    ``backend`` selects the service's execution backend (``"thread"`` or
    ``"process"``); the scenario and its invariants are backend-agnostic,
    which is the point — both must serve the same answers.  ``executor``
    picks the query-execution arm the same way (``"columnar"`` or
    ``"sql"``): the mode-agreement invariant must hold on either.

    ``catalog`` (a path) makes the engine persist decided outcomes to a
    durable :class:`~repro.catalog.DecompositionCatalog` and serve repeats
    of previously-seen instances from it across process restarts.

    ``chaos_seed`` switches on chaos mode: the scenario runs under the
    seeded bounded fault schedule of :func:`chaos_rules` and additionally
    asserts the recovery invariants (byte-identical answers, catalog
    re-attach, surviving worker pool).  A chaos run without an explicit
    ``catalog`` uses a throwaway temporary one — the circuit-breaker ladder
    needs a durable tier to break and re-attach.
    """
    chaos = chaos_seed is not None
    temp_dir = None
    if chaos and catalog is None:
        temp_dir = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        catalog = str(Path(temp_dir.name) / "chaos-catalog.db")
    instances = [(factory(), k, expect) for factory, k, expect in SELFTEST_INSTANCES]
    query = parse_conjunctive_query(SELFTEST_QUERY, name="selftest")
    database = random_database_for_query(query, domain_size=8, tuples_per_relation=40)

    failures: list[str] = []
    service = DecompositionService(
        workers=SELFTEST_WORKERS,
        engine=DecompositionEngine(catalog=catalog),
        backend=backend,
    )
    barrier = threading.Barrier(clients)

    def client(client_id: int) -> None:
        try:
            barrier.wait(timeout=30)
            for _ in range(repeats):
                tickets = [
                    (service.submit(hypergraph, k), expect)
                    for hypergraph, k, expect in instances
                ]
                query_tickets = [
                    service.submit_query(query, database, mode, executor=executor)
                    for mode in ("boolean", "count", "enumerate")
                ]
                for ticket, expect in tickets:
                    result = ticket.result(timeout=60)
                    if result.timed_out or result.success != expect:
                        failures.append(
                            f"client {client_id}: wrong answer for "
                            f"{result.hypergraph.name or result.hypergraph!r} "
                            f"k={result.width_parameter}"
                        )
                    elif result.success:
                        validate_hd(result.decomposition)
                boolean, count_, enum = [t.result(timeout=60) for t in query_tickets]
                if boolean.boolean != (enum.count > 0) or count_.count != enum.count:
                    failures.append(f"client {client_id}: query answer modes disagree")
        except Exception as exc:  # noqa: BLE001 - surfaced in the report
            failures.append(f"client {client_id}: {type(exc).__name__}: {exc}")

    injector = None
    previous = None
    if chaos:
        injector = faults.FaultInjector(
            rules=chaos_rules(chaos_seed, backend), seed=chaos_seed
        )
        previous = faults.install(injector)

    # daemon=True: if a regression deadlocks a ticket (the very bug this
    # selftest exists to catch) the process must still exit 1 instead of
    # hanging in interpreter shutdown on a stuck non-daemon thread.
    threads = [
        threading.Thread(target=client, args=(i,), daemon=True) for i in range(clients)
    ]
    probe_ticket = None
    try:
        for thread in threads:
            thread.start()
        if chaos:
            # The parallel-backend probe rides alongside the client storm so
            # the injected process-worker kills (and the respawns proving
            # them survivable) happen under real concurrent load.
            probe_factory, probe_k, _probe_expect = CHAOS_PARALLEL_PROBE
            probe_ticket = service.submit(
                probe_factory(),
                probe_k,
                algorithm="log-k-decomp-parallel",
                num_workers=2,
                hybrid=False,
            )
        for thread in threads:
            thread.join(timeout=120)
            if thread.is_alive():
                failures.append("client thread did not finish (possible deadlock)")
        if probe_ticket is not None:
            try:
                probe_result = probe_ticket.result(timeout=120)
                if probe_result.timed_out or not probe_result.success:
                    failures.append(
                        "chaos: the parallel probe did not decide its instance "
                        "despite worker respawns"
                    )
            except Exception as exc:  # noqa: BLE001 - surfaced in the report
                failures.append(f"chaos: parallel probe failed: {exc}")
    finally:
        if injector is not None:
            # Recovery must be asserted on a *fault-free* substrate: leftover
            # rule budget re-tripping the circuit during the re-attach probe
            # below would make the invariants flaky.
            if previous is not None:
                faults.install(previous)
            else:
                faults.uninstall()

    if chaos:
        # The outage is over: the catalog must come back (forced half-open
        # probe, shadow rows replayed), and every answer computed under
        # chaos must be byte-identical to a fault-free computation.
        if not service.catalog_probe():
            failures.append("chaos: the catalog did not re-attach after the outage")
        baseline_engine = DecompositionEngine()
        for hypergraph, k, expect in instances:
            label = hypergraph.name or f"instance(k={k})"
            try:
                replay = service.submit(hypergraph, k).result(timeout=60)
            except Exception as exc:  # noqa: BLE001 - surfaced in the report
                failures.append(f"chaos: replay of {label} failed: {exc}")
                continue
            base = baseline_engine.decompose(registry.build("hybrid"), hypergraph, k)
            if base.success is not replay.success:
                failures.append(f"chaos: decision for {label} diverges from fault-free run")
            elif base.success and decomposition_to_json(
                base.decomposition
            ) != decomposition_to_json(replay.decomposition):
                failures.append(f"chaos: answer for {label} is not byte-identical "
                                "to the fault-free run")

    if chaos:
        # Pool liveness must be observed while the service is still up —
        # after shutdown the workers have (correctly) exited.
        live = service.stats().health
        if live["workers_alive"] != live["workers_total"]:
            failures.append("chaos: the worker pool shrank")
    # Only wait for the pool on a clean run: with a failure detected the
    # workers may be wedged, and a bounded exit with rc=1 (all threads are
    # daemons) beats hanging the CI job on an unbounded join.
    service.shutdown(wait=not failures, cancel_pending=bool(failures))

    stats = service.stats()
    unique_decompositions = len(instances) + (1 if chaos else 0)
    total = clients * repeats * (len(instances) + 3)
    if chaos:
        total += 1 + len(instances)  # the parallel probe and the replay pass
    if stats.completed != total:
        failures.append(f"completed {stats.completed} of {total} requests")
    if chaos:
        health = stats.health
        if health["worker_crashes"] < 1:
            failures.append("chaos: no worker crash was exercised")
        if health["worker_respawns"] < 1:
            failures.append("chaos: no worker was respawned")
        if health["quarantined"] != 0:
            failures.append("chaos: a sub-threshold key was wrongly quarantined")
        if health["process_worker_respawns"] < 1:
            failures.append("chaos: no process worker respawn was exercised")
        circuit = health["catalog_circuit"]
        if circuit is None or circuit["reattaches"] < 1:
            failures.append("chaos: the catalog circuit never re-attached")
        elif circuit["state"] != "closed":
            failures.append("chaos: the catalog circuit is still open after recovery")
        if stats.catalog is not None and stats.catalog.memory_fallback:
            failures.append("chaos: the catalog is still serving memory-only")
    if stats.coalesced + stats.fast_path_hits == 0:
        failures.append("no request was coalesced or served from the memo")
    # Decomposition results are memoized, so across the whole run each
    # distinct (instance, k) key must have been computed exactly once.
    # Query results are only deduplicated while in flight (they are not
    # memoized), so their computation count is merely bounded by the
    # submission count.
    decompose_runs = stats.computations_by_kind.get("decompose", 0)
    if decompose_runs > unique_decompositions:
        failures.append(
            f"{decompose_runs} decomposition computations for "
            f"{unique_decompositions} distinct keys (exactly-once violated)"
        )

    ok = not failures
    lines = [
        f"serve selftest: {clients} clients x {repeats} rounds over "
        f"{len(instances)} instances + 3 query modes ({SELFTEST_WORKERS} {backend} workers)",
        f"  requests submitted : {stats.submitted}",
        f"  completed          : {stats.completed}",
        f"  computations       : {stats.computations} "
        f"({decompose_runs} decompositions for {unique_decompositions} distinct keys)",
        f"  coalesced in-flight: {stats.coalesced}",
        f"  memo fast-path hits: {stats.fast_path_hits}",
        f"  latency p50 / p95  : {stats.latency_p50 * 1000:.2f} / "
        f"{stats.latency_p95 * 1000:.2f} ms",
        f"  engine cache hit % : {stats.engine_cache.hit_rate * 100:.0f}%",
    ]
    if stats.catalog is not None:
        lines.append(
            f"  catalog (L2)       : {stats.catalog.hits} hits, "
            f"{stats.catalog.misses} misses, {stats.catalog.stores} stores, "
            f"{stats.catalog.validate_rejects} validate-rejects"
            + (" [memory fallback]" if stats.catalog.memory_fallback else "")
        )
    if chaos:
        health = stats.health
        circuit = health.get("catalog_circuit") or {}
        lines += [
            f"  chaos seed {chaos_seed:<8}: {injector.total_injected()} faults "
            f"injected across {len(injector.injected_counts())} points",
            f"  worker crashes     : {health['worker_crashes']} "
            f"(respawns {health['worker_respawns']}, "
            f"requeued {health['tasks_requeued']}, "
            f"quarantined {health['quarantined']})",
            f"  process respawns   : {health['process_worker_respawns']}",
            f"  catalog circuit    : {circuit.get('state')} "
            f"(opens {circuit.get('opens')}, reattaches {circuit.get('reattaches')}, "
            f"retries {circuit.get('retries')})",
        ]
    lines += [f"  FAIL: {failure}" for failure in failures]
    lines.append("  result: " + ("OK" if ok else "FAILED"))
    snapshot = stats.as_dict()
    snapshot["selftest_ok"] = ok
    snapshot["failures"] = list(failures)
    if chaos:
        snapshot["chaos"] = {
            "seed": chaos_seed,
            "injected": injector.injected_counts(),
        }
        if temp_dir is not None:
            service.engine.catalog.close()
            temp_dir.cleanup()
    return ok, "\n".join(lines), snapshot


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Smoke-test the concurrent decomposition service.",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the concurrent serving smoke scenario and verify its invariants",
    )
    parser.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="service execution backend: in-process threads (default) or a "
        "cache-affinity-routed process pool",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="columnar",
        help="query execution arm: the in-memory columnar engine (default) "
        "or SQL pushdown into SQLite",
    )
    parser.add_argument("--clients", type=int, default=8, help="concurrent client threads")
    parser.add_argument("--repeats", type=int, default=3, help="rounds per client")
    parser.add_argument(
        "--catalog",
        default=None,
        metavar="PATH",
        help="persist decided outcomes to a durable catalog (SQLite) at PATH",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the selftest under a seeded bounded fault schedule and "
        "assert the recovery invariants",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the chaos fault schedule (default 0)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _parser()
    args = parser.parse_args(argv)
    if not args.selftest:
        parser.print_help()
        return 2
    ok, report, _stats = run_selftest(
        clients=args.clients,
        repeats=args.repeats,
        catalog=args.catalog,
        chaos_seed=args.chaos_seed if args.chaos else None,
        backend=args.backend,
        executor=args.executor,
    )
    print(report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
