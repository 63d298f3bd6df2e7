"""Table 1: #solved instances and runtimes per method and instance group.

Paper reference (Table 1): over the full HyperBench corpus, the log-k-decomp
hybrid solves the most instances (3102 of 3648), ahead of HtdLEO (2544) and
NewDetKDecomp (2060), with average runtimes comparable to NewDetKDecomp and
far below HtdLEO.  The benchmark regenerates the same table structure on the
synthetic corpus; see "Paper experiments" in ``docs/benchmarks.md`` on comparing shapes.
"""

from __future__ import annotations

from conftest import BUDGET, MAX_WIDTH, write_result

from repro.bench.reporting import render_table
from repro.bench.runner import run_experiment
from repro.bench.tables import build_table1


def test_table1(benchmark, corpus, experiment_data):
    """Render Table 1 from the shared grid and time a single-group re-run."""
    table = build_table1(experiment_data)
    write_result("table1", render_table(table))

    small = [inst for inst in corpus if inst.num_edges <= 10][:6]

    def rerun_small_group():
        return run_experiment(small, time_budget=BUDGET, max_width=MAX_WIDTH)

    benchmark.pedantic(rerun_small_group, rounds=1, iterations=1)
    assert table.rows, "Table 1 must contain at least one instance group"
    assert table.rows[-1][0] == "Total"
