"""Serving a duplicate-heavy workload through the DecompositionService.

Run with ``python examples/service_workload.py``.

Eight client threads hammer one service with overlapping decomposition and
query requests.  The point of the demo is what does *not* happen: although
96 decomposition requests arrive, only a handful of searches run — in-flight
deduplication coalesces concurrent duplicates onto one computation and the
result memo serves repeats at submit time.  The stats snapshot at
the end makes the serving behaviour visible.
"""

from __future__ import annotations

import threading

from repro import DecompositionEngine
from repro.hypergraph import generators
from repro.hypergraph.cq import parse_conjunctive_query
from repro.query import random_database_for_query
from repro.service import DecompositionService

CLIENTS = 8
ROUNDS = 2
INSTANCES = [
    (generators.cycle(6), 2),
    (generators.cycle(10), 2),
    (generators.grid(2, 3), 2),
    (generators.clique(5), 3),
    (generators.hypercycle(8, 3), 2),
    (generators.triangle_cascade(3), 2),
]
QUERY = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z), t(z,x).", name="demo")


def main() -> None:
    database = random_database_for_query(QUERY, domain_size=8, tuples_per_relation=40)
    service = DecompositionService(workers=4, engine=DecompositionEngine())
    barrier = threading.Barrier(CLIENTS)

    def client(client_id: int) -> None:
        barrier.wait()
        for _ in range(ROUNDS):
            tickets = [service.submit(h, k) for h, k in INSTANCES]
            is_sat = service.submit_query(QUERY, database, "boolean")
            for ticket in tickets:
                assert ticket.result(timeout=60).success
            assert is_sat.result(timeout=60).boolean in (True, False)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    stats = service.stats()
    service.shutdown(wait=True)

    total = CLIENTS * ROUNDS * (len(INSTANCES) + 1)
    print(f"{CLIENTS} clients x {ROUNDS} rounds -> {total} requests")
    print(f"  searches actually run : {stats.computations}")
    print(f"  coalesced in flight   : {stats.coalesced}")
    print(f"  memo fast-path hits   : {stats.fast_path_hits}")
    print(f"  latency p50 / p95     : {stats.latency_p50 * 1000:.2f} / "
          f"{stats.latency_p95 * 1000:.2f} ms")
    print(f"  engine cache hit rate : {stats.engine_cache.hit_rate:.0%}")
    assert stats.completed == total
    assert stats.computations_by_kind["decompose"] <= len(INSTANCES)


if __name__ == "__main__":
    main()
