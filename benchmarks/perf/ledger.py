"""The ledger's metric declarations and the statistics every report uses.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names, units,
directions and regression bounds; ``BENCHMARK.json`` repeats them for the
driver and the smoke test checks that the two agree.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float  # share of the parent's median the metric may worsen by
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric @ workload this number should move


#: Every time here is calibrated CPU seconds of the workload's process tree
#: (clock.py): what the program spends, which is what a caller waits for on
#: an idle host and the one clock the neighbours on this shared box do not
#: move.  The wall-clock readings are the ungated ``wall.*`` rows below.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "start-up import, input generation, engine/service construction, worker fork, cache warm-up"),
    EndToEnd("cpu_s", "s", "lower", 0.20, "one round's whole timed section, all phases"),
    EndToEnd("cold_cpu_ms", "ms", "lower", 0.20,
             "per first-time op (search, store, first query of a shape, never-seen request)"),
    EndToEnd("warm_cpu_ms", "ms", "lower", 0.20,
             "per repeated op (L1 hit, warm query, probe-phase request)"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.15,
             "ru_maxrss of the workload's process, plus its largest reaped child where workers are forked"),
)

_DS, _DP, _DC = "cpu_s @ decomp_search", "cpu_s @ decomp_parallel", "cpu_s @ decomp_cached"
_QC, _QS = "warm_cpu_ms @ query_columnar", "warm_cpu_ms @ query_sql"
_ST, _SP = "cpu_s @ serve_thread", "warm_cpu_ms @ serve_process"

PER_LAYER: tuple[PerLayer, ...] = (
    # hypergraph
    PerLayer("hypergraph.parse_us", "us", "lower", "warm_cpu_ms @ decomp_cached"),
    PerLayer("hypergraph.canonical_hash_us", "us", "lower", f"warm_cpu_ms @ decomp_cached; {_ST}"),
    # pipeline
    PerLayer("pipeline.simplify_ms", "ms", "lower", "warm_cpu_ms @ decomp_cached"),
    PerLayer("pipeline.lift_ms", "ms", "lower", "warm_cpu_ms @ decomp_cached"),
    PerLayer("pipeline.l1_hit_us", "us", "lower", "warm_cpu_ms @ decomp_cached"),
    PerLayer("pipeline.stage_simplify_s", "s", "lower", _DC),
    PerLayer("pipeline.stage_cache_s", "s", "lower", _DC),
    PerLayer("pipeline.stage_decompose_s", "s", "lower", _DS),
    PerLayer("pipeline.stage_lift_s", "s", "lower", _DC),
    PerLayer("pipeline.l1_hits", "count", "higher", "warm_cpu_ms @ decomp_cached"),
    PerLayer("pipeline.l1_misses", "count", "lower", "cold_cpu_ms @ decomp_cached"),
    # lru
    PerLayer("lru.get_us", "us", "lower", f"warm_cpu_ms @ decomp_cached; {_ST}"),
    PerLayer("lru.put_us", "us", "lower", "cold_cpu_ms @ decomp_cached"),
    # core
    PerLayer("core.logk_s", "s", "lower", _DS),
    PerLayer("core.hybrid_s", "s", "lower", _DS),
    PerLayer("core.parallel_s", "s", "lower", _DP),
    PerLayer("core.refute_s", "s", "lower", f"{_DS}; {_DP}"),
    PerLayer("core.find_s", "s", "lower", f"{_DS}; {_DP}"),
    PerLayer("core.recursive_calls", "count", "lower", _DS),
    PerLayer("core.max_recursion_depth", "count", "lower", _DS),
    PerLayer("core.depth_over_log_bound", "ratio", "lower", "none (the Theorem 4.1 shape)"),
    PerLayer("core.labels_tried", "count", "lower", f"{_DS}; {_DP}"),
    PerLayer("core.subproblems_delegated", "count", "higher", _DS),
    PerLayer("core.cache_hits", "count", "higher", _DS),
    PerLayer("core.parallel_speedup", "ratio", "higher", _DP),
    PerLayer("core.parallel_worker_respawns", "count", "lower", _DP),
    # decomp
    PerLayer("decomp.labels_per_s", "1/s", "higher", f"{_DS}; {_DP}"),
    PerLayer("decomp.splits_per_s", "1/s", "higher", f"{_DS}; {_DP}"),
    PerLayer("decomp.validate_ms", "ms", "lower", "restart phase of cpu_s @ decomp_cached"),
    PerLayer("decomp.enum_branches_pruned", "count", "higher", _DS),
    PerLayer("decomp.enum_domination_skips", "count", "higher", _DS),
    PerLayer("decomp.splitter_memo_hit_rate", "ratio", "higher", _DS),
    PerLayer("decomp.bitset_memo_hits", "count", "higher", _DS),
    # catalog
    PerLayer("catalog.put_us", "us", "lower", "cold_cpu_ms @ decomp_cached"),
    PerLayer("catalog.flush_s", "s", "lower", _DC),
    PerLayer("catalog.get_hit_us", "us", "lower", _DC),
    PerLayer("catalog.get_miss_us", "us", "lower", "cold_cpu_ms @ decomp_cached"),
    PerLayer("catalog.file_bytes_per_cert_byte", "ratio", "lower", "none (space per user byte)"),
    PerLayer("catalog.hits", "count", "higher", _DC),
    PerLayer("catalog.misses", "count", "lower", _DC),
    PerLayer("catalog.stores", "count", "lower", _DC),
    PerLayer("catalog.validate_rejects", "count", "lower", _DC),
    # core.codec
    PerLayer("codec.cert_encode_us", "us", "lower", _DC),
    PerLayer("codec.cert_decode_us", "us", "lower", _DC),
    PerLayer("codec.request_encode_us", "us", "lower", _SP),
    PerLayer("codec.answer_decode_us", "us", "lower", _SP),
    PerLayer("codec.request_bytes", "B", "lower", _SP),
    PerLayer("codec.answer_bytes", "B", "lower", _SP),
    PerLayer("codec.payload_ship_ms", "ms", "lower", "setup_s @ serve_process"),
    # query.plan
    PerLayer("query.plan_cold_ms", "ms", "lower", "cold_cpu_ms @ query_columnar and query_sql"),
    PerLayer("query.plan_decompose_ms", "ms", "lower", "cold_cpu_ms @ query_columnar and query_sql"),
    PerLayer("query.plan_compile_ms", "ms", "lower", "cold_cpu_ms @ query_columnar and query_sql"),
    PerLayer("query.plan_hit_us", "us", "lower", f"{_QC}; {_QS}"),
    PerLayer("query.plan_cache_hit_rate", "ratio", "higher", f"{_QC}; {_QS}"),
    # query.columnar
    PerLayer("query.columnar_encode_ms", "ms", "lower", "cold_cpu_ms @ query_columnar"),
    PerLayer("query.columnar_exec_ms.boolean", "ms", "lower", f"{_QC}; {_ST}"),
    PerLayer("query.columnar_exec_ms.count", "ms", "lower", f"{_QC}; {_ST}"),
    PerLayer("query.columnar_exec_ms.enumerate", "ms", "lower", f"wall.warm_p95_ms @ query_columnar; {_ST}"),
    PerLayer("query.rows_materialised", "count", "lower", _QC),
    PerLayer("query.bags_built", "count", "lower", _QC),
    PerLayer("query.bags_reused", "count", "higher", _QC),
    PerLayer("query.indexes_built", "count", "lower", _QC),
    PerLayer("query.indexes_reused", "count", "higher", _QC),
    PerLayer("query.semijoins_run", "count", "lower", _QC),
    PerLayer("query.joins_run", "count", "lower", _QC),
    PerLayer("query.early_exit_share", "ratio", "higher", _QC),
    # query.sqlgen
    PerLayer("query.sql_compile_ms", "ms", "lower", "cold_cpu_ms @ query_sql"),
    PerLayer("query.sql_load_ms", "ms", "lower", "cold_cpu_ms @ query_sql"),
    PerLayer("query.sql_exec_ms.boolean", "ms", "lower", _QS),
    PerLayer("query.sql_exec_ms.count", "ms", "lower", _QS),
    PerLayer("query.sql_exec_ms.enumerate", "ms", "lower", "wall.warm_p95_ms @ query_sql"),
    PerLayer("query.sql_disk_exec_ms", "ms", "lower", _QS),
    PerLayer("query.sql_statements", "count", "lower", _QS),
    # service
    PerLayer("service.submit_us", "us", "lower", f"{_ST}; warm_cpu_ms @ serve_*"),
    PerLayer("service.fast_path_us", "us", "lower", _ST),
    PerLayer("service.probe_exec_ms", "ms", "lower", "warm_cpu_ms @ serve_*"),
    PerLayer("service.overhead_ms", "ms", "lower", "warm_cpu_ms @ serve_*"),
    PerLayer("service.class_fresh_p50_ms", "ms", "lower", "cpu_s, wall.ops_per_s @ serve_*"),
    PerLayer("service.class_repeat_p50_ms", "ms", "lower", "cpu_s, wall.ops_per_s @ serve_*"),
    PerLayer("service.class_interactive_p50_ms", "ms", "lower", "cpu_s, wall.ops_per_s @ serve_*"),
    PerLayer("service.class_enumerate_p50_ms", "ms", "lower", "cpu_s, wall.ops_per_s @ serve_*"),
    PerLayer("service.class_all_p95_ms", "ms", "lower", "cpu_s, wall.ops_per_s @ serve_*"),
    PerLayer("service.computations", "count", "lower", "cpu_s, wall.ops_per_s @ serve_*"),
    PerLayer("service.coalesced", "count", "higher", "cpu_s, wall.ops_per_s @ serve_*"),
    PerLayer("service.fast_path_hits", "count", "higher", "cpu_s, wall.ops_per_s @ serve_*"),
    PerLayer("service.dedup_ratio", "ratio", "higher", "cpu_s, wall.ops_per_s @ serve_*"),
    PerLayer("service.failed", "count", "lower", "failed ops @ serve_*"),
    # service.process_backend
    PerLayer("process.roundtrip_overhead_ms", "ms", "lower", _SP),
    PerLayer("process.worker_roundtrip_ms", "ms", "lower", _SP),
    PerLayer("process.spawn_s", "s", "lower", "setup_s @ serve_process"),
    PerLayer("process.respawns", "count", "lower", "cpu_s, wall.ops_per_s @ serve_process"),
    # faults / harness
    PerLayer("faults.fire_ns", "ns", "lower", "every workload uniformly (the < 2 % bar)"),
    # the untraced rounds on the wall clock: what a caller on this box waited,
    # host interference included (ungated; read them on a quiet machine)
    PerLayer("wall.setup_s", "s", "lower", "setup_s"),
    PerLayer("wall.round_s", "s", "lower", "cpu_s"),
    PerLayer("wall.ops_per_s", "1/s", "higher", "cpu_s (serve_*: requests/s of the throughput phase)"),
    PerLayer("wall.cold_p50_ms", "ms", "lower", "cold_cpu_ms"),
    PerLayer("wall.warm_p50_ms", "ms", "lower", "warm_cpu_ms"),
    PerLayer("wall.warm_p95_ms", "ms", "lower", "warm_cpu_ms (tail; n >= 200)"),
    PerLayer("trace.overhead_share", "ratio", "lower", "none (qualifies a traced reading)"),
    PerLayer("trace.coverage_share", "ratio", "higher", "none (self time of wrapped spans / traced wall.round_s)"),
    PerLayer("calibration_s", "s", "lower", "none (median calibration slice of the run; compare hosts as ratios)"),
    PerLayer("calibration.speed", "ratio", "higher", "none (reference slice / that: 1 = the reference box at full speed)"),
)

#: name -> why the workload was chosen (which layers do its work)
WORKLOADS: tuple[tuple[str, str], ...] = (
    ("decomp_search", "separator search does >95% of the work: covers, components, separators, logk, detk, hybrid"),
    ("decomp_parallel", "only workload with core/parallel.py on the path: partitioning, worker spawn, collection"),
    ("decomp_cached", "cheap distinct keys: pipeline, lru, catalog writes beside reads, codec, parsing and hashing"),
    ("query_columnar", "query.plan and query.columnar dominate; the decomposition is trivial; sqlgen untouched"),
    ("query_sql", "the same plans through query.sqlgen and SQLite, in memory and on disk; columnar untouched"),
    ("serve_thread", "admission, in-flight dedup, result memo, priority queue, worker hand-off; no IPC, no codec"),
    ("serve_process", "the identical stream with affinity routing, ship-once payloads, pipes and core.codec added"),
)


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (which need not be sorted)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


median = statistics.median


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` the way the driver takes them."""
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, middle, middle, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return middle, q1, q3, (q3 - q1) / middle if middle else 0.0


def worse_by(metric_better: str, base: float, new: float) -> float:
    """Share of ``base`` by which ``new`` is worse (negative when better)."""
    if not base:
        return 0.0
    return (new - base) / base if metric_better == "lower" else (base - new) / base
