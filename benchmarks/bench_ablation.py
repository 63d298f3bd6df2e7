"""Ablation study: the Appendix C optimisations of log-k-decomp.

``docs/architecture.md`` lists the ablation switches; this benchmark measures
the effect of disabling each on the size of the explored search space
(λ-labels tried) and the wall-clock time for a representative positive and
negative instance:

* ``negative_base_case`` — early failure when only special edges remain,
* ``parent_overlap_pruning`` — parent labels must intersect ∪λ(c),
* ``require_balanced`` — the balanced-separator filter itself (also removes
  the logarithmic depth guarantee).

One search-kernel switch rides along (PR 3):

* ``subedge_domination`` — dropping pool edges whose component-restricted
  vertex sets are contained in another pool edge's (shrinks the label space).
"""

from __future__ import annotations

import time

from conftest import write_result

from repro.bench.tables import Table
from repro.bench.reporting import render_table
from repro.core import LogKDecomposer
from repro.hypergraph import generators

# ``restrict_allowed_edges`` is no longer an ablation arm: excluding the
# edges below a separator from the λ-labels of the fragment above it turned
# out to be required for HD condition 4 on the stitched tree (invalid
# certificates otherwise), so the restriction is now always applied.
VARIANTS = {
    "full (Algorithm 2)": {},
    "no negative base case": {"negative_base_case": False},
    "no parent-overlap pruning": {"parent_overlap_pruning": False},
    "no balancedness requirement": {"require_balanced": False},
    "no subedge domination": {"subedge_domination": False},
}

INSTANCES = [
    ("cycle-20 (k=2, positive)", generators.cycle(20), 2, True),
    ("chorded-cycle-14 (k=2)", generators.with_chords(generators.cycle(14), 2, seed=3), 2, None),
    ("clique-5 (k=2, negative)", generators.clique(5), 2, False),
]


def test_ablation(benchmark):
    def run_all():
        rows = []
        for label, options in VARIANTS.items():
            for name, hypergraph, k, expected in INSTANCES:
                decomposer = LogKDecomposer(**options)
                start = time.perf_counter()
                result = decomposer.decompose(hypergraph, k)
                elapsed = time.perf_counter() - start
                if expected is not None:
                    assert result.success == expected, (label, name)
                stats = result.statistics
                rows.append(
                    [
                        label,
                        name,
                        "yes" if result.success else "no",
                        str(stats.labels_tried),
                        str(stats.enum_branches_pruned),
                        str(stats.enum_domination_skips),
                        str(stats.splitter_memo_hits),
                        str(stats.max_recursion_depth),
                        f"{elapsed:.3f}",
                    ]
                )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table(
        "Ablation: effect of the Appendix C optimisations",
        [
            "Variant",
            "Instance",
            "Solved",
            "Labels tried",
            "Branches pruned",
            "Domination skips",
            "Splitter memo hits",
            "Max depth",
            "Time (s)",
        ],
    )
    for row in rows:
        table.add_row(row)
    write_result("ablation", render_table(table))
    assert len(rows) == len(VARIANTS) * len(INSTANCES)
