"""Figure 1: parallel scaling of log-k-decomp with the number of cores.

Paper reference (Figure 1): on HB_large, log-k-decomp's average time to find
and verify the optimal width drops roughly linearly from ~189 s on 1 core to
~50 s on 4 cores; the hybrid shows the same scaling at slightly higher
absolute times, and the single-core NewDetKDecomp reference is flat.

The reproduction uses the multiprocessing backend (search-space partitioning
of the top-level separator loop) on a refutation workload — width-3 chordal
cycles decided at k = 2, the regime the paper itself highlights ("negative
instances where the full search space is explored ... effectively linear
scaling").  Absolute speedups are smaller than the paper's because only the
top level is partitioned and runs last fractions of a second; the qualitative
trend (more cores → lower average time; det-k flat and slower) is what
"Paper experiments" in ``docs/benchmarks.md`` asks to compare.
"""

from __future__ import annotations

from conftest import write_result

from repro.bench.corpus import Instance
from repro.bench.figures import build_figure1
from repro.bench.reporting import render_scaling_series
from repro.hypergraph import generators


def _refutation_instances() -> list[Instance]:
    """Width-3 chordal cycles; deciding hw <= 2 exhausts the separator space."""
    specs = [(70, 8, 9), (85, 7, 12), (110, 6, 3)]
    return [
        Instance(
            f"fig1-cycle-{length}",
            "Synthetic",
            generators.with_chords(generators.cycle(length), chords, seed=chord_seed),
            "chordal-cycle",
        )
        for length, chords, chord_seed in specs
    ]


def test_figure1(benchmark):
    instances = _refutation_instances()

    def build():
        return build_figure1(
            instances,
            core_counts=(1, 2, 4),
            time_budget=20.0,
            hybrid=True,
            fixed_width=2,
        )

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    write_result("figure1", render_scaling_series(series))
    logk = next(line for line in series if line.method == "log-k")
    assert len(logk.cores) == 3
    # More cores must not make the refutation slower on average (allowing a
    # small tolerance for process start-up noise).
    assert logk.average_runtimes[-1] <= logk.average_runtimes[0] * 1.25
    reference = [line for line in series if "NewDetKDecomp" in line.method]
    assert reference and len(set(reference[0].average_runtimes)) == 1
