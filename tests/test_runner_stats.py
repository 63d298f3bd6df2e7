"""Unit tests for the benchmark runner and the statistics aggregation."""

from __future__ import annotations

import pytest

from repro.bench.corpus import Instance
from repro.bench.runner import (
    DecomposerSpec,
    default_method_specs,
    run_experiment,
    run_optimal_solver,
    run_parametrised,
)
from repro.bench.stats import group_records, runtime_stats, solved_count
from repro.core import DetKDecomposer, HybridDecomposer
from repro.hypergraph import generators
from repro.pipeline.engine import DecompositionEngine


@pytest.fixture(scope="module")
def small_instances() -> list[Instance]:
    return [
        Instance("cycle6", "Synthetic", generators.cycle(6), "cycle"),
        Instance("path4", "Application", generators.path(4), "path"),
        Instance("clique5", "Synthetic", generators.clique(5), "clique"),
    ]


def test_run_parametrised_resolves_optimum(small_instances):
    record = run_parametrised(
        small_instances[0], "detk", lambda t: DetKDecomposer(timeout=t), 5.0, max_width=4
    )
    assert record.solved
    assert record.optimal_width == 2
    assert record.decisions[1] is False
    assert record.decisions[2] is True
    assert not record.timed_out
    assert record.method == "detk"
    assert record.group == "|E| <= 10"


def test_run_parametrised_accumulates_search_counters(small_instances):
    # The kernel counters are summed over every (instance, k) run of the
    # record (a private cache-less engine: a result-cache hit would replay
    # stored stats).
    # A fresh hypergraph (not the shared fixture) so the incidence-mask table
    # has not been built yet and mask_table_builds must move.
    instance = Instance("cycle6-fresh", "Synthetic", generators.cycle(6), "cycle")
    record = run_parametrised(
        instance,
        "detk",
        lambda t: DetKDecomposer(timeout=t, engine=DecompositionEngine(cache=False)),
        5.0,
        max_width=4,
    )
    counters = record.search_counters
    assert counters["labels_tried"] > 0
    assert counters["splitter_memo_misses"] > 0
    # The bitset kernels build one incidence-mask table per hypergraph used
    # by a splitter, so a successful run must record at least one build.
    assert counters["mask_table_builds"] > 0
    assert set(counters) == {
        "labels_tried",
        "enum_branches_pruned",
        "enum_domination_skips",
        "splitter_memo_hits",
        "splitter_memo_misses",
        "mask_table_builds",
        "bitset_memo_hits",
        "worker_respawns",
    }


def test_run_parametrised_timeout():
    hard = Instance("k7", "Synthetic", generators.clique(7), "clique")
    record = run_parametrised(
        hard, "detk", lambda t: DetKDecomposer(timeout=t), 0.0, max_width=4
    )
    assert not record.solved
    assert record.timed_out


def test_run_parametrised_width_cap(small_instances):
    clique = small_instances[2]
    record = run_parametrised(
        clique, "detk", lambda t: DetKDecomposer(timeout=t), 5.0, max_width=2
    )
    assert not record.solved
    assert record.decisions == {1: False, 2: False}
    assert record.decides_width_at_most(2)
    assert not record.decides_width_at_most(3)


def test_decides_width_at_most_logic(small_instances):
    record = run_parametrised(
        small_instances[0], "hybrid", lambda t: HybridDecomposer(timeout=t), 5.0, 4
    )
    assert record.decides_width_at_most(2)
    assert record.decides_width_at_most(3)  # implied by the width-2 HD found
    assert record.decides_width_at_most(1)


def test_run_optimal_solver(small_instances):
    record = run_optimal_solver(small_instances[0], time_budget=5.0, max_width=4)
    assert record.solved
    assert record.optimal_width == 2
    assert record.decisions[1] is False and record.decisions[2] is True


def test_run_experiment_grid(small_instances):
    data = run_experiment(small_instances[:2], time_budget=3.0, max_width=3)
    assert set(data.methods()) == {"NewDetKDecomp", "HtdLEO", "log-k-decomp Hybrid"}
    for method in data.methods():
        assert len(data.records_for(method)) == 2
        assert solved_count(data.records_for(method)) == 2


def test_run_experiment_custom_methods(small_instances):
    specs = [DecomposerSpec("detk", lambda t: DetKDecomposer(timeout=t))]
    lines: list[str] = []
    data = run_experiment(
        small_instances[:1], methods=specs, time_budget=3.0, progress=lines.append
    )
    assert data.methods() == ["detk"]
    assert lines and "detk" in lines[0]


def test_default_method_specs_labels():
    labels = [spec.label for spec in default_method_specs()]
    assert labels == ["NewDetKDecomp", "HtdLEO", "log-k-decomp Hybrid"]


def test_runtime_stats_over_solved_only():
    instances = [
        Instance("cycle6", "Synthetic", generators.cycle(6), "cycle"),
        Instance("k7", "Synthetic", generators.clique(7), "clique"),
    ]
    records = [
        run_parametrised(instances[0], "detk", lambda t: DetKDecomposer(timeout=t), 5.0, 3),
        run_parametrised(instances[1], "detk", lambda t: DetKDecomposer(timeout=t), 0.0, 3),
    ]
    stats = runtime_stats(records)
    assert stats.solved == 1
    assert stats.total == 2
    assert stats.max >= stats.avg >= 0
    assert stats.stdev == 0.0
    assert len(stats.as_row()) == 4


def test_runtime_stats_empty():
    stats = runtime_stats([])
    assert stats.solved == 0 and stats.avg == 0.0


def test_group_records(small_instances):
    records = [
        run_parametrised(inst, "detk", lambda t: DetKDecomposer(timeout=t), 5.0, 3)
        for inst in small_instances
    ]
    grouped = group_records(records)
    assert ("Synthetic", "|E| <= 10") in grouped
    assert ("Application", "|E| <= 10") in grouped
    assert sum(len(v) for v in grouped.values()) == len(records)
