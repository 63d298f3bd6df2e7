"""Per-layer numbers of a traced run: spans, counters, samples and probes
folded into the metrics of ``ledger.PER_LAYER``."""

from __future__ import annotations

import sys

import drivers
import ledger
import probes
import tracing


def warn(message: str) -> None:
    print(f"perf: warning: {message}", file=sys.stderr)


class Layers:
    """Per-layer numbers of the traced rounds: spans, counters, samples, probes."""

    def __init__(self, rounds, plain, probes: dict, missing: list[str]) -> None:
        self.rounds, self.probes, self.missing = rounds, probes, set(missing)
        self.spans = [span for rec in rounds for span in rec.spans]
        self.setup_spans = [span for rec in rounds for span in rec.setup_spans]
        self.table = tracing.aggregate(self.spans)
        own = tracing.self_times(self.spans)
        self.wall = sum(rec.wall for rec in rounds)
        self.tagged_self = sum(own[span[0]] for span in self.spans if span[5] is not None)
        self.op_seconds = sum(s for rec in rounds for samples in rec.samples.values() for s in samples)
        self.plain_wall = ledger.median([rec.wall for rec in plain]) if plain else None

    def span_mean(self, name: str, scale: float, tag: str | None = None, spans=None):
        """Mean duration of the spans called ``name`` (of ops tagged ``tag|...``)."""
        if name in self.missing:
            return None
        durations = [span[3] - span[2] for span in (self.spans if spans is None else spans)
                     if span[1] == name and (tag is None or (span[5] or "").startswith(tag + "|"))]
        return sum(durations) / len(durations) * scale if durations else None

    def span_round(self, name: str, scale: float, key: str = "total_s"):
        """Seconds per round spent in spans called ``name``."""
        row = self.table.get(name)
        return row[key] / len(self.rounds) * scale if row else None

    def window_mean(self, name: str, phase: str):
        durations = []
        for rec in self.rounds:
            low, high = rec.windows.get(phase, (0.0, 0.0))
            durations += [span[3] - span[2] for span in rec.spans
                          if span[1] == name and low <= span[2] <= high]
        return sum(durations) / len(durations) if durations else None

    def counter(self, name: str):
        values = [rec.counters[name] for rec in self.rounds if name in rec.counters]
        return ledger.median(values) if values else None

    def ratio(self, numerator: str, denominator: str, scale: float = 1.0):
        top, bottom = self.counter(numerator), self.counter(denominator)
        return top / bottom * scale if top is not None and bottom else None

    def pooled(self, *kinds: str) -> list[float]:
        return [s for rec in self.rounds for kind in kinds for s in rec.samples.get(kind, ())]

    def sample(self, kind: str, fraction: float):
        pooled = self.pooled(kind)
        return ledger.percentile(pooled, fraction) * 1e3 if pooled else None

    def sample_mean(self, kind: str, scale: float):
        pooled = self.pooled(kind)
        return sum(pooled) / len(pooled) * scale if pooled else None


def per_layer(driver, layers: Layers, harness: dict) -> dict:
    """Every per-layer metric of ``ledger.PER_LAYER``; ``None`` where the layer
    is not on this workload's path or a target could not be resolved.
    ``harness`` holds the numbers of the untraced rounds (``wall.*``, calibration)."""
    L, executor = layers, getattr(driver, "executor", None)
    served = hasattr(driver, "backend")
    process = getattr(driver, "backend", None) == "process"
    hit_rate = None
    hits, misses = L.counter("splitter_memo_hits"), L.counter("splitter_memo_misses")
    if hits is not None and hits + misses:
        hit_rate = hits / (hits + misses)
    plan_hits, plan_misses = L.counter("plan_cache_hits"), L.counter("plan_cache_misses")
    all_classes = L.pooled("fresh", "repeat", "interactive", "enumerate")
    probe_latency = L.sample_mean("warm", 1.0) if served else None
    probe_exec = L.ratio("probe_exec_s", "probe_exec_n")
    overhead = worker_roundtrip = roundtrip_overhead = None
    if probe_latency is not None:
        if probe_exec is not None:
            overhead = (probe_latency - probe_exec) * 1e3
        parent_side = [L.window_mean(name, "probe") for name in
                       ("service.submit_query", "hypergraph.parse_cq", "codec.answer_decode")]
        if process and None not in parent_side:
            worker_roundtrip = (probe_latency - sum(parent_side)) * 1e3
        base = L.probes.get("process.thread_probe_p50_ms")
        if process and base is not None:
            roundtrip_overhead = L.sample("warm", 0.5) - base
    submit = [span[3] - span[2] for span in L.spans if span[1] in ("service.submit", "service.submit_query")]
    exec_ms = {mode: L.ratio(f"exec_{mode}_s", f"exec_{mode}_n", 1e3) for mode in ("boolean", "count", "enumerate")}
    values = {
        "hypergraph.parse_us": L.span_mean("hypergraph.parse", 1e6),
        "hypergraph.canonical_hash_us": L.probes.get("hypergraph.canonical_hash_us"),
        "pipeline.simplify_ms": L.span_mean("pipeline.simplify", 1e3),
        "pipeline.lift_ms": L.span_mean("pipeline.lift", 1e3),
        "pipeline.l1_hit_us": None if served else L.span_mean("pipeline.engine_decompose", 1e6, "warm"),
        "pipeline.stage_simplify_s": L.counter("stage.simplify"),
        "pipeline.stage_cache_s": L.counter("stage.cache"),
        "pipeline.stage_decompose_s": L.counter("stage.decompose"),
        "pipeline.stage_lift_s": L.counter("stage.lift"),
        "pipeline.l1_hits": L.counter("l1_hits"),
        "pipeline.l1_misses": L.counter("l1_misses"),
        "lru.get_us": L.span_mean("lru.get", 1e6),
        "lru.put_us": L.span_mean("lru.put", 1e6),
        "core.logk_s": L.counter("core.logk_s"),
        "core.hybrid_s": L.counter("core.hybrid_s"),
        "core.parallel_s": L.counter("core.parallel_s"),
        "core.refute_s": L.counter("core.refute_s"),
        "core.find_s": L.counter("core.find_s"),
        "core.recursive_calls": L.counter("recursive_calls"),
        "core.max_recursion_depth": L.counter("max_recursion_depth"),
        "core.depth_over_log_bound": L.counter("depth_over_log_bound"),
        "core.labels_tried": L.counter("labels_tried"),
        "core.subproblems_delegated": L.counter("subproblems_delegated"),
        "core.cache_hits": L.counter("cache_hits"),
        "core.parallel_speedup": L.probes.get("core.parallel_speedup"),
        "core.parallel_worker_respawns": L.counter("worker_respawns"),
        "decomp.labels_per_s": L.probes.get("decomp.labels_per_s"),
        "decomp.splits_per_s": L.probes.get("decomp.splits_per_s"),
        "decomp.validate_ms": L.probes.get("decomp.validate_ms"),
        "decomp.enum_branches_pruned": L.counter("enum_branches_pruned"),
        "decomp.enum_domination_skips": L.counter("enum_domination_skips"),
        "decomp.splitter_memo_hit_rate": hit_rate,
        "decomp.bitset_memo_hits": L.counter("bitset_memo_hits"),
        "catalog.put_us": L.span_mean("catalog.put", 1e6),
        "catalog.flush_s": L.span_round("catalog.flush", 1.0),
        "catalog.get_hit_us": L.span_mean("catalog.get", 1e6, "restart"),
        "catalog.get_miss_us": L.span_mean("catalog.get", 1e6, "store"),
        "catalog.file_bytes_per_cert_byte": L.probes.get("catalog.file_bytes_per_cert_byte"),
        "catalog.hits": L.counter("catalog.hits"),
        "catalog.misses": L.counter("catalog.misses"),
        "catalog.stores": L.counter("catalog.stores"),
        "catalog.validate_rejects": L.counter("catalog.validate_rejects"),
        "codec.cert_encode_us": L.span_mean("codec.cert_encode", 1e6),
        "codec.cert_decode_us": L.span_mean("codec.cert_decode", 1e6),
        "codec.request_encode_us": L.span_mean("codec.request_encode", 1e6),
        "codec.answer_decode_us": L.span_mean("codec.answer_decode", 1e6),
        "codec.request_bytes": L.probes.get("codec.request_bytes"),
        "codec.answer_bytes": L.probes.get("codec.answer_bytes"),
        "codec.payload_ship_ms": L.span_mean("codec.payload_encode", 1e3, spans=L.setup_spans + L.spans),
        "query.plan_cold_ms": L.ratio("plan_cold_s", "cold_ops", 1e3),
        "query.plan_decompose_ms": L.ratio("plan_decompose_s", "cold_ops", 1e3),
        "query.plan_compile_ms": L.ratio("plan_compile_s", "cold_ops", 1e3),
        "query.plan_hit_us": L.ratio("plan_hit_s", "warm_ops", 1e6),
        "query.plan_cache_hit_rate": (plan_hits / (plan_hits + plan_misses)
                                      if plan_hits is not None and plan_hits + plan_misses else None),
        "query.columnar_encode_ms": L.span_round("query.columnar_atom_table", 1e3, "self_s"),
        "query.rows_materialised": L.counter("exec.rows_materialised"),
        "query.bags_built": L.counter("exec.bags_built"),
        "query.bags_reused": L.counter("exec.bags_reused"),
        "query.indexes_built": L.counter("exec.indexes_built"),
        "query.indexes_reused": L.counter("exec.indexes_reused"),
        "query.semijoins_run": L.counter("exec.semijoins_run"),
        "query.joins_run": L.counter("exec.joins_run"),
        "query.early_exit_share": L.ratio("early_exits", "warm_ops"),
        "query.sql_compile_ms": L.span_mean("query.sql_compile", 1e3),
        "query.sql_load_ms": L.span_round("query.sql_load", 1e3),
        "query.sql_disk_exec_ms": L.ratio("disk_exec_s", "disk_exec_n", 1e3),
        "query.sql_statements": L.probes.get("query.sql_statements"),
        "service.submit_us": sum(submit) / len(submit) * 1e6 if submit else None,
        "service.fast_path_us": L.sample_mean("repeat", 1e6),
        "service.probe_exec_ms": probe_exec * 1e3 if probe_exec is not None else None,
        "service.overhead_ms": overhead,
        "service.class_fresh_p50_ms": L.sample("fresh", 0.5),
        "service.class_repeat_p50_ms": L.sample("repeat", 0.5),
        "service.class_interactive_p50_ms": L.sample("interactive", 0.5),
        "service.class_enumerate_p50_ms": L.sample("enumerate", 0.5),
        "service.class_all_p95_ms": ledger.percentile(all_classes, 0.95) * 1e3 if all_classes else None,
        "service.computations": L.counter("computations"),
        "service.coalesced": L.counter("coalesced"),
        "service.fast_path_hits": L.counter("fast_path_hits"),
        "service.dedup_ratio": (None if not served else
                                (L.counter("coalesced") + L.counter("fast_path_hits")) / L.counter("submitted")),
        "service.failed": L.counter("failed"),
        "process.roundtrip_overhead_ms": roundtrip_overhead,
        "process.worker_roundtrip_ms": worker_roundtrip,
        "process.spawn_s": L.counter("spawn_s") if process else None,
        "process.respawns": L.counter("respawns") if process else None,
        "faults.fire_ns": L.probes.get("faults.fire_ns"),
        "trace.overhead_share": (L.wall / len(L.rounds) / L.plain_wall - 1.0) if L.plain_wall else None,
        # Two client threads overlap, so the service's share is of the ops'
        # own time; a single caller's is of the whole traced wall time.
        "trace.coverage_share": L.tagged_self / (L.op_seconds if served else L.wall),
        **harness,
    }
    for mode, value in exec_ms.items():
        values[f"query.columnar_exec_ms.{mode}"] = value if executor == "columnar" or served else None
        values[f"query.sql_exec_ms.{mode}"] = value if executor == "sql" else None
    return {metric.name: {"value": values[metric.name], "unit": metric.unit} for metric in ledger.PER_LAYER}


def run_probes(driver, api, rec, seed: int, workdir: str) -> dict:
    """The direct probes that apply to ``driver``, over the last round's inputs."""
    state, out = rec.state, probes.fire_ns()
    steps = []
    if isinstance(driver, drivers.DecompDriver):
        steps += [lambda: probes.canonical_hash_us(api, [op[1] for op in state["ops"]]),
                  lambda: probes.search_kernels(api, state["ops"]),
                  lambda: probes.validate_ms(api, rec)]
        if driver.forks_workers:
            steps.append(lambda: probes.parallel_speedup(api, state, rec))
    elif isinstance(driver, drivers.CachedDriver):
        steps += [lambda: probes.canonical_hash_us(api, [key[1] for key in state["keys"]]),
                  lambda: probes.validate_ms(api, rec),
                  lambda: probes.certificate_bytes(state, rec)]
    elif isinstance(driver, drivers.QueryDriver):
        if driver.executor == "sql":
            steps.append(lambda: probes.sql_statements(state, rec))
    else:
        steps.append(lambda: probes.canonical_hash_us(
            api, [request[3] for request in state["stream"] if request[0] == "decompose"]))
        if driver.forks_workers:
            steps += [lambda: probes.wire_bytes(api, state, rec),
                      lambda: probes.thread_probe_base(api, driver, seed, workdir)]
    for step in steps:
        try:
            out.update(step())
        except Exception as exc:  # a probe a refactor broke must not sink the run
            warn(f"probe failed: {exc!r}")
    return out
