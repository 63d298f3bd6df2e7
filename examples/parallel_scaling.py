"""Parallel separator search: measuring multi-core scaling (Figure 1 style).

Run with ``python examples/parallel_scaling.py``.

The example decomposes a batch of larger instances with 1, 2 and 4 worker
processes and reports the wall-clock times.  The parallel backend partitions
the top-level balanced-separator search space across workers exactly as the
paper's implementation distributes it across cores (Appendix D.1).  Workers
are processes: under the GIL CPU-bound threads would not scale.
"""

from __future__ import annotations

import time

from repro.core import ParallelLogKDecomposer
from repro.hypergraph import generators


def instances():
    # Negative (refutation) instances: the width asked for is one below the
    # true hypertree width, so the full balanced-separator space must be
    # explored — exactly the regime in which the paper observes the best
    # parallel scaling ("negative instances where the full search space is
    # explored").
    return [
        ("chorded cycle, 78 edges (hw=3), k=2",
         generators.with_chords(generators.cycle(70), 8, seed=9), 2),
        ("chorded cycle, 92 edges (hw=3), k=2",
         generators.with_chords(generators.cycle(85), 7, seed=12), 2),
        ("chorded cycle, 116 edges (hw>=3), k=2",
         generators.with_chords(generators.cycle(110), 6, seed=3), 2),
    ]


def run(workers: int) -> float:
    total = 0.0
    for _, hypergraph, k in instances():
        decomposer = ParallelLogKDecomposer(num_workers=workers, hybrid=False, timeout=120)
        start = time.perf_counter()
        decomposer.decompose(hypergraph, k)
        total += time.perf_counter() - start
    return total


def main() -> None:
    print("Instances:")
    for name, hypergraph, k in instances():
        print(f"  {name}: |E|={hypergraph.num_edges}, |V|={hypergraph.num_vertices}, k={k}")
    print()

    baseline = None
    for workers in (1, 2, 4):
        elapsed = run(workers)
        baseline = baseline or elapsed
        print(f"{workers} worker process(es): {elapsed:6.2f} s (speedup {baseline / elapsed:4.2f}x)")


if __name__ == "__main__":
    main()
