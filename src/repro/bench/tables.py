"""Builders for the paper's tables (Tables 1-5).

Every builder consumes :class:`~repro.bench.runner.ExperimentData` (or runs a
dedicated sweep) and returns a :class:`Table`: a title, column headers and
string rows, rendered by :mod:`repro.bench.reporting`.  The structure of each
table follows the paper:

* **Table 1** — #solved and runtime statistics per method, grouped by origin
  and size group.
* **Table 2** — the hybridisation study on the HB_large analogue: the two
  switching metrics at several thresholds, against the det-k and optimal
  baselines.
* **Table 3** — instances solved per (optimal) width, including the Virtual
  Best method.
* **Table 4** — for how many instances the question ``hw <= w`` is decided.
* **Table 5** — the optimal solver re-run with an extended time budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from .corpus import SIZE_GROUPS, Instance, corpus_summary
from .runner import (
    bench_decomposer,
    ExperimentData,
    RunRecord,
    run_optimal_solver,
    run_parametrised,
)
from .stats import group_records, runtime_stats

__all__ = [
    "Table",
    "build_table1",
    "build_table2",
    "build_table3",
    "build_table4",
    "build_table5",
]


@dataclass
class Table:
    """A rendered-ready table: title, headers and rows of strings."""

    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, row: Sequence[str]) -> None:
        self.rows.append([str(cell) for cell in row])


# --------------------------------------------------------------------------- #
# Table 1
# --------------------------------------------------------------------------- #
def build_table1(data: ExperimentData) -> Table:
    """Comparison of the methods: #solved and runtimes per origin/size group."""
    methods = data.methods()
    headers = ["Origin", "Size group", "Instances"]
    for method in methods:
        headers.extend([f"{method} #solved", "avg", "max", "stdev"])
    table = Table("Table 1: solved instances and runtimes (seconds)", headers)

    counts = corpus_summary(data.instances)
    grouped_per_method = {m: group_records(data.records_for(m)) for m in methods}

    for origin in ("Application", "Synthetic"):
        for group in SIZE_GROUPS:
            key = (origin, group)
            if counts.get(key, 0) == 0:
                continue
            row: list[str] = [origin, group, str(counts[key])]
            for method in methods:
                stats = runtime_stats(grouped_per_method[method].get(key, []))
                row.extend(stats.as_row())
            table.add_row(row)

    total_row: list[str] = ["Total", "-", str(len(data.instances))]
    for method in methods:
        stats = runtime_stats(data.records_for(method))
        total_row.extend(stats.as_row())
    table.add_row(total_row)
    return table


# --------------------------------------------------------------------------- #
# Table 2
# --------------------------------------------------------------------------- #
def build_table2(
    instances: Sequence[Instance],
    weighted_thresholds: Sequence[float] = (20.0, 40.0, 80.0),
    edge_thresholds: Sequence[float] = (10.0, 20.0, 40.0),
    time_budget: float = 2.0,
    max_width: int = 6,
) -> Table:
    """The hybridisation-metric study (Table 2) on the HB_large analogue.

    The default thresholds are the paper's thresholds (200/400/600 for
    WeightedCount, 20/40/80 for EdgeCount) scaled down by roughly the same
    factor as the corpus' instance sizes; pass the paper's values explicitly
    to run the original grid.  The det-k and optimal baselines close the
    table.
    """
    table = Table(
        "Table 2: hybrid metrics on HB_large",
        ["Method", "Threshold", "Solved", "Av. runtime (sec.)"],
    )

    def add_row(label: str, threshold: str, records: list[RunRecord]) -> None:
        stats = runtime_stats(records)
        table.add_row([label, threshold, stats.solved, f"{stats.avg:.2f}"])

    def run_method(label: str, factory) -> list[RunRecord]:
        return [
            run_parametrised(instance, label, factory, time_budget, max_width)
            for instance in instances
        ]

    for metric, thresholds in (
        ("WeightedCount", weighted_thresholds),
        ("EdgeCount", edge_thresholds),
    ):
        for threshold in thresholds:
            records = run_method(
                metric,
                lambda t, metric=metric, threshold=threshold: bench_decomposer(
                    "hybrid", timeout=t, metric=metric, threshold=threshold
                ),
            )
            add_row(metric, f"{threshold:g}", records)

    records = run_method("NewDetKDecomp", lambda t: bench_decomposer("detk", timeout=t))
    add_row("NewDetKDecomp", "-", records)
    records = [
        run_optimal_solver(instance, "HtdLEO", time_budget * 2, max_width)
        for instance in instances
    ]
    add_row("HtdLEO", "-", records)
    return table


# --------------------------------------------------------------------------- #
# Table 3
# --------------------------------------------------------------------------- #
def build_table3(data: ExperimentData, max_width: int = 6) -> Table:
    """Instances solved per optimal width, with the Virtual Best aggregate."""
    methods = data.methods()
    table = Table(
        "Table 3: instances solved per width",
        ["Width", "Virtual Best"] + methods,
    )
    # The virtual best solves an instance at width w if any method solved it
    # and determined that width.
    per_instance_best: dict[str, int] = {}
    for method in methods:
        for record in data.records_for(method):
            if record.solved and record.optimal_width is not None:
                previous = per_instance_best.get(record.instance_name)
                if previous is None or record.optimal_width < previous:
                    per_instance_best[record.instance_name] = record.optimal_width

    for width in range(1, max_width + 1):
        virtual_best = sum(1 for w in per_instance_best.values() if w == width)
        row = [str(width), str(virtual_best)]
        for method in methods:
            solved_here = sum(
                1
                for record in data.records_for(method)
                if record.solved and record.optimal_width == width
            )
            row.append(str(solved_here))
        table.add_row(row)
    return table


# --------------------------------------------------------------------------- #
# Table 4
# --------------------------------------------------------------------------- #
def build_table4(data: ExperimentData, max_width: int = 6) -> Table:
    """For how many instances each method decides ``hw <= w`` (w = 1..max)."""
    methods = data.methods()
    table = Table(
        "Table 4: upper-bound questions decided (hw <= w)",
        ["Problem", "Virtual Best"] + methods,
    )
    for width in range(1, max_width + 1):
        decided_by: dict[str, set[str]] = {m: set() for m in methods}
        for method in methods:
            for record in data.records_for(method):
                if record.decides_width_at_most(width):
                    decided_by[method].add(record.instance_name)
        virtual = set().union(*decided_by.values()) if methods else set()
        row = [f"hw <= {width}", str(len(virtual))]
        row.extend(str(len(decided_by[m])) for m in methods)
        table.add_row(row)
    return table


# --------------------------------------------------------------------------- #
# Table 5
# --------------------------------------------------------------------------- #
def build_table5(
    instances: Sequence[Instance],
    short_budget: float = 2.0,
    extension_factor: float = 10.0,
    max_width: int = 6,
) -> Table:
    """The optimal solver with an extended budget (Table 5): solved and delta."""
    table = Table(
        "Table 5: HtdLEO-style solver with extended timeout",
        ["Origin", "Size group", "Instances", "#solved (short)", "#solved (long)", "Change"],
    )
    short_records = [
        run_optimal_solver(instance, "HtdLEO", short_budget, max_width)
        for instance in instances
    ]
    long_records = [
        run_optimal_solver(
            instance, "HtdLEO-long", short_budget * extension_factor, max_width
        )
        for instance in instances
    ]
    counts = corpus_summary(instances)
    short_by_group = group_records(short_records)
    long_by_group = group_records(long_records)
    total_short = 0
    total_long = 0
    for origin in ("Application", "Synthetic"):
        for group in SIZE_GROUPS:
            key = (origin, group)
            if counts.get(key, 0) == 0:
                continue
            short_solved = sum(1 for r in short_by_group.get(key, []) if r.solved)
            long_solved = sum(1 for r in long_by_group.get(key, []) if r.solved)
            total_short += short_solved
            total_long += long_solved
            delta = long_solved - short_solved
            table.add_row(
                [
                    origin,
                    group,
                    str(counts[key]),
                    str(short_solved),
                    str(long_solved),
                    f"+{delta}" if delta > 0 else ("±0" if delta == 0 else str(delta)),
                ]
            )
    delta_total = total_long - total_short
    table.add_row(
        [
            "Total",
            "-",
            str(len(list(instances))),
            str(total_short),
            str(total_long),
            f"+{delta_total}" if delta_total > 0 else ("±0" if delta_total == 0 else str(delta_total)),
        ]
    )
    return table
