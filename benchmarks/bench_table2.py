"""Table 2: hybridisation metrics (WeightedCount / EdgeCount) on HB_large.

Paper reference (Table 2): WeightedCount with thresholds 200-600 solves ~395-411
of the 465 HB_large instances with average runtimes around 90 s, clearly ahead
of EdgeCount, NewDetKDecomp (174) and HtdLEO (277).  Thresholds here are scaled
to the smaller corpus (see "Paper experiments" in ``docs/benchmarks.md``).
"""

from __future__ import annotations

from conftest import BUDGET, write_result

from repro.bench.reporting import render_table
from repro.bench.tables import build_table2


def test_table2(benchmark, large_corpus):
    def build():
        return build_table2(
            large_corpus,
            weighted_thresholds=(20.0, 40.0, 80.0),
            edge_thresholds=(10.0, 20.0, 40.0),
            time_budget=BUDGET,
            max_width=3,
        )

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    write_result("table2", render_table(table))
    methods = {row[0] for row in table.rows}
    assert {"WeightedCount", "EdgeCount", "NewDetKDecomp", "HtdLEO"} <= methods
