"""Execution harness: run (algorithm, instance) grids with time budgets.

The harness mirrors the paper's experimental protocol (Section 5.1):

* the parametrised algorithms (det-k-decomp, log-k-decomp and its hybrid) are
  run for increasing width ``k`` with a per-run time budget; an instance
  counts as *solved* when an HD of some width ``k`` was found **and** all
  smaller widths were refuted within the budget (i.e. the optimum is proven).
  The loop is :func:`~repro.core.width.width_sweep`; :func:`sweep_record`
  turns its runs into a :class:`RunRecord` (decisions, summed runtime,
  merged statistics, optimal width);
* the HtdLEO-style optimal solver takes no width parameter and either returns
  the optimum within its budget or times out;
* running times are reported only over solved instances (timeouts excluded),
  exactly as the paper's Table 1 caption specifies.

Budgets in this reproduction are seconds rather than the paper's one hour —
the corpus and the substrate are smaller — but the bookkeeping (what counts
as solved, which decisions are recorded for Table 4) is identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Sequence

from ..core.base import Decomposer, SearchStatistics
from ..core.optimal import OptimalHDSolver
from ..core.width import width_sweep
from ..pipeline.engine import DecompositionEngine
from ..pipeline.registry import registry
from .corpus import Instance

__all__ = [
    "RunRecord",
    "ExperimentData",
    "DecomposerSpec",
    "bench_decomposer",
    "default_method_specs",
    "run_parametrised",
    "sweep_record",
    "run_optimal_solver",
    "run_experiment",
]


def bench_decomposer(name: str, **options) -> Decomposer:
    """Build a decomposer for harness *measurements*.

    The decomposer runs the staged engine, but a private cache-less one:
    preprocessing is part of the measurement while result caching is
    disabled, so identically-configured runs in later tables of the same
    process measure real search work instead of hitting the process-wide
    default cache.
    """
    return registry.build(name, engine=DecompositionEngine(cache=False), **options)


#: The direct optimal solver's budget over a parametrised method's
#: per-(instance, k) budget: the paper similarly grants HtdLEO a larger
#: memory budget because SMT solving is more resource-hungry.
OPTIMAL_BUDGET_FACTOR = 2.0

DecomposerFactory = Callable[[float | None], Decomposer]


@dataclass(frozen=True)
class DecomposerSpec:
    """A named decomposition method: a label plus a factory taking a timeout.

    ``factory=None`` is the direct optimal solver, which takes no width
    parameter (:func:`run_optimal_solver`).
    """

    label: str
    factory: DecomposerFactory | None


def default_method_specs() -> list[DecomposerSpec]:
    """The three methods compared in Table 1 of the paper.

    All decomposers are built through the algorithm registry by
    :func:`bench_decomposer`.
    """
    return [
        DecomposerSpec("NewDetKDecomp", lambda t: bench_decomposer("detk", timeout=t)),
        DecomposerSpec("HtdLEO", None),
        DecomposerSpec("log-k-decomp Hybrid", lambda t: bench_decomposer("hybrid", timeout=t)),
    ]


@dataclass
class RunRecord:
    """Outcome of resolving one instance with one method."""

    instance_name: str
    origin: str
    group: str
    num_edges: int
    num_vertices: int
    method: str
    solved: bool
    optimal_width: int | None
    runtime: float
    timed_out: bool
    decisions: dict[int, bool] = field(default_factory=dict)
    max_recursion_depth: int = 0
    #: Accumulated search-kernel counters (labels tried, branches pruned,
    #: domination skips, splitter memo traffic) over all (k) runs of this
    #: record; see :meth:`repro.core.base.SearchStatistics.search_counters`.
    search_counters: dict[str, int] = field(default_factory=dict)

    def decides_width_at_most(self, width: int) -> bool:
        """True iff this run decided the question ``hw <= width``.

        A positive decision for some width ``k0 <= width`` or an explicit
        negative/positive decision at ``width`` both qualify (finding an HD of
        width ``k0`` proves ``hw <= width`` for every ``width >= k0``).
        """
        if width in self.decisions:
            return True
        return any(k <= width and answer for k, answer in self.decisions.items())


@dataclass
class ExperimentData:
    """All run records of an experiment, grouped per method."""

    instances: list[Instance]
    records: dict[str, list[RunRecord]] = field(default_factory=dict)

    def add(self, record: RunRecord) -> None:
        self.records.setdefault(record.method, []).append(record)

    def methods(self) -> list[str]:
        return list(self.records)

    def records_for(self, method: str) -> list[RunRecord]:
        return self.records.get(method, [])


# --------------------------------------------------------------------------- #
# single-instance runs
# --------------------------------------------------------------------------- #
def run_parametrised(
    instance: Instance,
    method: str,
    factory: DecomposerFactory,
    time_budget: float,
    max_width: int = 6,
) -> RunRecord:
    """Resolve the optimal width of ``instance`` by iterative deepening.

    ``time_budget`` is the budget for each (instance, k) run, matching the
    per-run timeout of the paper's setup.
    """
    return sweep_record(instance, method, factory, time_budget, range(1, max_width + 1))


def sweep_record(
    instance: Instance,
    method: str,
    factory: DecomposerFactory,
    time_budget: float,
    widths: Iterable[int],
) -> RunRecord:
    """The record of one :func:`~repro.core.width.width_sweep` over ``widths``.

    Each width is decided by a fresh ``factory(time_budget)``.  ``solved``
    and ``optimal_width`` mean "proven optimal" only when ``widths`` starts
    at 1 (:func:`run_parametrised`); Figure 1's fixed-width protocol sweeps
    the single width ``(k,)`` and reads ``timed_out`` instead.
    """
    runs = width_sweep(
        lambda k: factory(time_budget).decompose(instance.hypergraph, k), widths
    )
    searched = SearchStatistics()
    for run in runs:
        searched.merge(run.statistics)
    found = runs[-1] if runs and runs[-1].success else None
    return RunRecord(
        instance_name=instance.name,
        origin=instance.origin,
        group=instance.group,
        num_edges=instance.num_edges,
        num_vertices=instance.num_vertices,
        method=method,
        solved=found is not None,
        optimal_width=found.width_parameter if found else None,
        runtime=sum(run.elapsed for run in runs),
        timed_out=bool(runs) and runs[-1].timed_out,
        decisions={run.width_parameter: run.success for run in runs if not run.timed_out},
        max_recursion_depth=searched.max_recursion_depth,
        search_counters=searched.search_counters(),
    )


def run_optimal_solver(
    instance: Instance,
    method: str = "HtdLEO",
    time_budget: float = 5.0,
    max_width: int = 6,
) -> RunRecord:
    """Resolve an instance with the HtdLEO-style direct optimal solver."""
    solver = OptimalHDSolver(timeout=time_budget, max_width=max_width)
    outcome = solver.solve(instance.hypergraph)
    width = outcome.width
    return RunRecord(
        instance_name=instance.name,
        origin=instance.origin,
        group=instance.group,
        num_edges=instance.num_edges,
        num_vertices=instance.num_vertices,
        method=method,
        solved=width is not None,
        optimal_width=width,
        runtime=outcome.elapsed,
        timed_out=outcome.timed_out,
        decisions={k: k >= width for k in range(1, max_width + 1)} if width else {},
        max_recursion_depth=outcome.statistics.max_recursion_depth,
    )


# --------------------------------------------------------------------------- #
# experiment grids
# --------------------------------------------------------------------------- #
def run_experiment(
    instances: Sequence[Instance],
    methods: Iterable[DecomposerSpec] | None = None,
    time_budget: float = 2.0,
    max_width: int = 6,
    progress: Callable[[str], None] | None = None,
) -> ExperimentData:
    """Run every method on every instance and collect the records.

    The direct optimal solver runs with :data:`OPTIMAL_BUDGET_FACTOR` times
    ``time_budget``.
    """
    specs = list(methods) if methods is not None else default_method_specs()
    data = ExperimentData(instances=list(instances))
    for instance in instances:
        for spec in specs:
            start = time.monotonic()
            if spec.factory is None:
                record = run_optimal_solver(
                    instance,
                    spec.label,
                    time_budget * OPTIMAL_BUDGET_FACTOR,
                    max_width,
                )
            else:
                record = run_parametrised(
                    instance, spec.label, spec.factory, time_budget, max_width
                )
            data.add(record)
            if progress is not None:
                progress(
                    f"{spec.label:>22} {instance.name:<20} "
                    f"{'solved' if record.solved else 'unsolved':<9} "
                    f"width={record.optimal_width} "
                    f"{time.monotonic() - start:6.2f}s"
                )
    return data
