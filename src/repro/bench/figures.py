"""Data series for the paper's figures (Figure 1 and Figure 3).

The harness produces the *data* behind the figures (series of points /
categorised scatter data) rather than rendered images, so no plotting
dependency is needed; :mod:`repro.bench.reporting` prints the series as text
tables.

* **Figure 1** — parallel scaling: for 1..n cores, the average time to find
  and verify the optimal width over the HB_large analogue, plus timeout
  counts, for log-k-decomp, its hybrid and the single-core det-k-decomp
  reference.  Two protocols — the width sweep from 1 and the single fixed
  width — run through one body and one record builder
  (:func:`~repro.bench.runner.sweep_record`); they differ only in which
  runs count.
* **Figure 3** — solved/unsolved scatter per algorithm over #edges ×
  #vertices.
* **Recursion depth** (Theorem 4.1 claim) — maximum recursion depth of
  log-k-decomp vs det-k-decomp on growing instance families, showing the
  logarithmic vs. linear growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..hypergraph import generators
from .corpus import Instance
from .runner import ExperimentData, RunRecord, bench_decomposer, sweep_record

__all__ = [
    "ScalingSeries",
    "ScatterPoint",
    "build_figure1",
    "build_figure3",
    "build_recursion_depth_series",
]


@dataclass
class ScalingSeries:
    """One line of Figure 1: average runtime per core count, plus timeouts."""

    method: str
    cores: list[int] = field(default_factory=list)
    average_runtimes: list[float] = field(default_factory=list)
    timeouts: int = 0

    def add(self, cores: int, average_runtime: float) -> None:
        self.cores.append(cores)
        self.average_runtimes.append(average_runtime)

    def speedup(self) -> list[float]:
        """Speedup relative to the single-core measurement."""
        if not self.average_runtimes or self.average_runtimes[0] == 0:
            return [1.0 for _ in self.average_runtimes]
        base = self.average_runtimes[0]
        return [base / value if value else float("inf") for value in self.average_runtimes]


@dataclass(frozen=True)
class ScatterPoint:
    """One point of Figure 3: an instance and whether the method solved it."""

    instance_name: str
    num_edges: int
    num_vertices: int
    solved: bool


def build_figure1(
    instances: Sequence[Instance],
    core_counts: Sequence[int] = (1, 2, 3, 4),
    time_budget: float = 2.0,
    max_width: int = 6,
    hybrid: bool = True,
    fixed_width: int | None = None,
) -> list[ScalingSeries]:
    """Measure parallel scaling of log-k-decomp (Figure 1).

    Two protocols share one body.  With ``fixed_width=None`` (default) every
    instance's optimal width is found and verified by iterative deepening, as
    in the paper, and a run counts when it *solved* its instance.  With
    ``fixed_width=k`` every instance is decided at that single width (the
    sweep over ``(k,)``) and a run counts when it did not time out; using
    ``k = hw - 1`` (a refutation workload) isolates the separator search
    whose space the parallel backend partitions, which is the regime where
    scaling is measurable at this reproduction's small instance sizes.

    Average runtimes are taken only over instances whose runs count for
    every core count (the paper's convention, which prevents a shrinking
    timeout set from skewing the averages); the single-core det-k-decomp
    reference averages its counted runs.  A line with no counted run
    averages 0.0.
    """
    widths = range(1, max_width + 1) if fixed_width is None else (fixed_width,)

    def counts(record: RunRecord) -> bool:
        return record.solved if fixed_width is None else not record.timed_out

    def sweep(label: str, factory) -> list[RunRecord]:
        return [
            sweep_record(instance, label, factory, time_budget, widths)
            for instance in instances
        ]

    def average(records: list[RunRecord]) -> float:
        return sum(r.runtime for r in records) / len(records) if records else 0.0

    methods = [("log-k", False)] + ([("log-k (Hybrid)", True)] if hybrid else [])
    series: list[ScalingSeries] = []
    for label, use_hybrid in methods:
        per_cores = {
            cores: sweep(
                label,
                lambda t, _cores=cores, _hybrid=use_hybrid: bench_decomposer(
                    "parallel", timeout=t, num_workers=_cores, hybrid=_hybrid
                ),
            )
            for cores in core_counts
        }
        missed = [r for records in per_cores.values() for r in records if not counts(r)]
        usable = {instance.name for instance in instances} - {r.instance_name for r in missed}
        line = ScalingSeries(method=label, timeouts=len(missed))
        for cores in core_counts:
            line.add(cores, average([r for r in per_cores[cores] if r.instance_name in usable]))
        series.append(line)

    detk = sweep("NewDetKDecomp", lambda t: bench_decomposer("detk", timeout=t))
    counted = [r for r in detk if counts(r)]
    reference = ScalingSeries("NewDetKDecomp (1 core)", timeouts=len(detk) - len(counted))
    for cores in core_counts:
        reference.add(cores, average(counted))
    series.append(reference)
    return series


def build_figure3(data: ExperimentData) -> dict[str, list[ScatterPoint]]:
    """Scatter data of solved/unsolved instances per method (Figure 3)."""
    scatter: dict[str, list[ScatterPoint]] = {}
    for method in data.methods():
        points = [
            ScatterPoint(
                instance_name=record.instance_name,
                num_edges=record.num_edges,
                num_vertices=record.num_vertices,
                solved=record.solved,
            )
            for record in data.records_for(method)
        ]
        scatter[method] = points
    return scatter


def build_recursion_depth_series(
    sizes: Sequence[int] = (8, 16, 32, 64),
    k: int = 2,
    family: str = "cycle",
) -> dict[str, list[tuple[int, int]]]:
    """Recursion depth of log-k-decomp vs det-k-decomp on a growing family.

    Returns, per method, a list of (number of edges, max recursion depth)
    pairs.  log-k-decomp grows logarithmically (Theorem 4.1) while the strict
    top-down det-k-decomp grows linearly on path-like structures.
    """
    hypergraphs = generators.family(family, list(sizes))
    result: dict[str, list[tuple[int, int]]] = {"log-k-decomp": [], "det-k-decomp": []}
    for hypergraph in hypergraphs:
        logk = bench_decomposer("logk").decompose(hypergraph, k)
        detk = bench_decomposer("detk").decompose(hypergraph, k)
        result["log-k-decomp"].append(
            (hypergraph.num_edges, logk.statistics.max_recursion_depth)
        )
        result["det-k-decomp"].append(
            (hypergraph.num_edges, detk.statistics.max_recursion_depth)
        )
    return result
