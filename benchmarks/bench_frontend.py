"""Micro-benchmark: the request front end scales with the input's incidences.

Every request parses its text and hashes the input to probe the result
cache, cache hits included; only a miss then runs ``simplify`` and hashes
the reduced instance for the catalog.  So parse + hash is the front end
every request pays, and a miss adds ``simplify``.  All three stages are
linear in the number of incidences: the parser walks the body once, one
anchored regex match per statement; each simplifier reduction is one pass
over the edge bitmasks and a vertex -> edge-position row table; the
canonical hash sorts the ``(edge name, sorted vertex names)`` pairs the
hypergraph keeps.  An all-pairs subset scan would be quadratic in the edge
count.

The guard times parse + simplify + ``canonical_hash`` on ``grid(20, 20)``
(760 edges) and ``grid(40, 40)`` (3,120 edges, 4.1x as many) and asserts
that the larger input costs less than 8x the smaller.  Both timings come
from the same process, so the runner's speed cancels out.  An all-pairs
subset scan read 11-21x on a 2-vCPU Intel Xeon VM, the linear front end
4.6-6x.  The perf ledger tracks the absolute per-op costs
(``hypergraph.parse_us``, ``pipeline.simplify_ms``,
``hypergraph.canonical_hash_us``) on its own, smaller inputs; no ledger
input is large enough to show the scaling.
"""

from __future__ import annotations

import time

from conftest import write_result

from repro.hypergraph import generators
from repro.hypergraph.io import parse_hypergraph, to_hyperbench_format
from repro.pipeline import simplify

SIDES = (20, 40)
REPEAT = 9
MAX_RATIO = 8.0


def _front_end_seconds(text: str) -> float:
    """Best-of-``REPEAT`` process CPU time of parse + simplify + hash on ``text``."""
    best = float("inf")
    for _ in range(REPEAT):
        start = time.process_time()
        simplify(parse_hypergraph(text)).reduced.canonical_hash()
        best = min(best, time.process_time() - start)
    return best


def test_front_end_cost_grows_with_the_incidences():
    rows = []
    timings = []
    for side in SIDES:
        hypergraph = generators.grid(side, side)
        seconds = _front_end_seconds(to_hyperbench_format(hypergraph))
        timings.append(seconds)
        rows.append(
            f"grid({side}, {side})  {hypergraph.num_edges:5d} edges  "
            f"parse + simplify + hash {seconds * 1e3:8.2f} ms"
        )
    ratio = timings[1] / timings[0]
    rows.append(f"ratio {ratio:.1f}x (bar < {MAX_RATIO:.0f}x)")
    write_result("frontend_scaling", "\n".join(rows))
    assert ratio < MAX_RATIO, rows
