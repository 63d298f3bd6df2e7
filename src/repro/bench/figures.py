"""Data series for the paper's figures (Figure 1 and Figure 3).

The harness produces the *data* behind the figures (series of points /
categorised scatter data) rather than rendered images, so no plotting
dependency is needed; :mod:`repro.bench.reporting` prints the series as text
tables.

* **Figure 1** — parallel scaling: for 1..n cores, the average time to find
  and verify the optimal width over the HB_large analogue, plus timeout
  counts, for log-k-decomp, its hybrid and the single-core det-k-decomp
  reference.
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
from .runner import (
    ExperimentData,
    RunRecord,
    bench_decomposer,
    run_parametrised,
)
from .stats import runtime_stats

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
    include_detk_reference: bool = True,
    hybrid: bool = True,
    fixed_width: int | None = None,
    simplify: bool = True,
) -> list[ScalingSeries]:
    """Measure parallel scaling of log-k-decomp (Figure 1).

    Average runtimes are taken only over instances that do not time out for
    any core count (the paper's convention, which prevents a shrinking
    timeout set from skewing the averages).

    Two protocols are supported.  With ``fixed_width=None`` (default) every
    instance's optimal width is found and verified by iterative deepening, as
    in the paper.  With ``fixed_width=k`` every instance is decided at that
    single width; using ``k = hw - 1`` (a refutation workload) isolates the
    separator search whose space the parallel backend partitions, which is the
    regime where scaling is measurable at this reproduction's small instance
    sizes.
    """
    if fixed_width is not None:
        return _build_figure1_fixed_width(
            instances,
            core_counts,
            time_budget,
            fixed_width,
            include_detk_reference,
            hybrid,
            simplify,
        )
    methods: list[tuple[str, bool]] = [("log-k", False)]
    if hybrid:
        methods.append(("log-k (Hybrid)", True))

    per_method_records: dict[str, dict[int, list[RunRecord]]] = {}
    for label, use_hybrid in methods:
        per_cores: dict[int, list[RunRecord]] = {}
        for cores in core_counts:
            def factory(timeout: float | None, _cores=cores, _hybrid=use_hybrid):
                return bench_decomposer(
                    "parallel",
                    timeout=timeout,
                    num_workers=_cores,
                    hybrid=_hybrid,
                    simplify=simplify,
                )

            per_cores[cores] = [
                run_parametrised(instance, label, factory, time_budget, max_width)
                for instance in instances
            ]
        per_method_records[label] = per_cores

    series: list[ScalingSeries] = []
    for label, per_cores in per_method_records.items():
        # Instances that never time out for this method.
        always_solved = set(instance.name for instance in instances)
        timeouts = 0
        for records in per_cores.values():
            for record in records:
                if not record.solved:
                    always_solved.discard(record.instance_name)
                    timeouts += 1
        line = ScalingSeries(method=label, timeouts=timeouts)
        for cores in core_counts:
            usable = [
                record
                for record in per_cores[cores]
                if record.instance_name in always_solved
            ]
            stats = runtime_stats(usable)
            line.add(cores, stats.avg)
        series.append(line)

    if include_detk_reference:
        detk_records = [
            run_parametrised(
                instance,
                "NewDetKDecomp",
                lambda t: bench_decomposer("detk", timeout=t, simplify=simplify),
                time_budget,
                max_width,
            )
            for instance in instances
        ]
        stats = runtime_stats([r for r in detk_records if r.solved])
        reference = ScalingSeries(
            method="NewDetKDecomp (1 core)",
            timeouts=sum(1 for r in detk_records if not r.solved),
        )
        for cores in core_counts:
            reference.add(cores, stats.avg)
        series.append(reference)
    return series


def _build_figure1_fixed_width(
    instances: Sequence[Instance],
    core_counts: Sequence[int],
    time_budget: float,
    width: int,
    include_detk_reference: bool,
    hybrid: bool,
    simplify: bool = True,
) -> list[ScalingSeries]:
    """Fixed-width variant of Figure 1 (see :func:`build_figure1`)."""
    methods: list[tuple[str, bool]] = [("log-k", False)]
    if hybrid:
        methods.append(("log-k (Hybrid)", True))

    series: list[ScalingSeries] = []
    for label, use_hybrid in methods:
        per_cores: dict[int, dict[str, tuple[bool, float]]] = {}
        for cores in core_counts:
            runs: dict[str, tuple[bool, float]] = {}
            for instance in instances:
                decomposer = bench_decomposer(
                    "parallel",
                    timeout=time_budget,
                    num_workers=cores,
                    hybrid=use_hybrid,
                    simplify=simplify,
                )
                result = decomposer.decompose(instance.hypergraph, width)
                runs[instance.name] = (not result.timed_out, result.elapsed)
            per_cores[cores] = runs
        decided_everywhere = {
            instance.name
            for instance in instances
            if all(per_cores[cores][instance.name][0] for cores in core_counts)
        }
        line = ScalingSeries(
            method=label,
            timeouts=sum(
                1
                for cores in core_counts
                for instance in instances
                if not per_cores[cores][instance.name][0]
            ),
        )
        for cores in core_counts:
            usable = [
                per_cores[cores][name][1] for name in decided_everywhere
            ]
            line.add(cores, sum(usable) / len(usable) if usable else 0.0)
        series.append(line)

    if include_detk_reference:
        times = []
        timeouts = 0
        for instance in instances:
            result = bench_decomposer(
                "detk", timeout=time_budget, simplify=simplify
            ).decompose(instance.hypergraph, width)
            if result.timed_out:
                timeouts += 1
            else:
                times.append(result.elapsed)
        average = sum(times) / len(times) if times else time_budget
        reference = ScalingSeries(method="NewDetKDecomp (1 core)", timeouts=timeouts)
        for cores in core_counts:
            reference.add(cores, average)
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
    simplify: bool = True,
) -> dict[str, list[tuple[int, int]]]:
    """Recursion depth of log-k-decomp vs det-k-decomp on a growing family.

    Returns, per method, a list of (number of edges, max recursion depth)
    pairs.  log-k-decomp grows logarithmically (Theorem 4.1) while the strict
    top-down det-k-decomp grows linearly on path-like structures.
    """
    hypergraphs = generators.family(family, list(sizes))
    result: dict[str, list[tuple[int, int]]] = {"log-k-decomp": [], "det-k-decomp": []}
    for hypergraph in hypergraphs:
        logk = bench_decomposer("logk", simplify=simplify).decompose(hypergraph, k)
        detk = bench_decomposer("detk", simplify=simplify).decompose(hypergraph, k)
        result["log-k-decomp"].append(
            (hypergraph.num_edges, logk.statistics.max_recursion_depth)
        )
        result["det-k-decomp"].append(
            (hypergraph.num_edges, detk.statistics.max_recursion_depth)
        )
    return result
