"""Direct per-layer probes over a workload's own inputs (traced runs only).

What a span cannot give — the throughput of inner-loop kernels that are
never wrapped, byte sizes, ratios against a second arm — is measured here
by calling the layer's public functions directly.  Targets outside
``repro.__all__`` are looked up by dotted name when the probe runs; a
missing one makes the probe return nothing, which the ledger reports as
``null`` with a warning.
"""

from __future__ import annotations

import pickle
from itertools import islice
from time import perf_counter

import drivers
from tracing import resolve

LABEL_SAMPLE = 4000  # labels enumerated / separators split per instance


def _lookup(module: str, path: str):
    found = resolve(module, path)
    return None if found is None else found[2]


def fire_ns() -> dict:
    fire = _lookup("repro.faults", "fire")
    if fire is None:
        return {}
    loops = 200_000
    start = perf_counter()
    for _ in range(loops):
        fire("perf.probe")
    return {"faults.fire_ns": (perf_counter() - start) / loops * 1e9}


def canonical_hash_us(api, texts: list[str]) -> dict:
    graphs = [api.parse_hypergraph(text) for text in texts]
    start = perf_counter()
    for graph in graphs:
        graph.canonical_hash()
    return {"hypergraph.canonical_hash_us": (perf_counter() - start) / len(graphs) * 1e6}


def search_kernels(api, ops: list[tuple]) -> dict:
    """Top-level label enumeration and component splitting, labels/s and splits/s."""
    enumerator = _lookup("repro.decomp.covers", "CoverEnumerator")
    label_union = _lookup("repro.decomp.covers", "label_union")
    splitter = _lookup("repro.decomp.components", "ComponentSplitter")
    full = _lookup("repro.decomp.extended", "full_bitcomp")
    if enumerator is None:
        return {}
    labels_n = splits_n = 0
    labels_s = splits_s = 0.0
    seen = set()
    for ident, text, k, *_ in ops:
        instance = ident.rsplit(":", 1)[-1]
        if (instance, k) in seen:
            continue
        seen.add((instance, k))
        host = api.parse_hypergraph(text)
        start = perf_counter()
        labels = list(islice(enumerator(host, k).labels(), LABEL_SAMPLE))
        labels_s += perf_counter() - start
        labels_n += len(labels)
        if None in (label_union, splitter, full):
            continue
        split = splitter(host, full(host), memoize=False).split_bits
        separators = [label_union(host, label) for label in labels]
        start = perf_counter()
        for separator in separators:
            split(separator)
        splits_s += perf_counter() - start
        splits_n += len(separators)
    out = {"decomp.labels_per_s": labels_n / labels_s}
    if splits_s:
        out["decomp.splits_per_s"] = splits_n / splits_s
    return out


def validate_ms(api, rec) -> dict:
    found = [op.output.decomposition for op in rec.ops
             if op.kind in ("store", "search") and op.output is not None and op.output.decomposition is not None]
    if not found:
        return {}
    start = perf_counter()
    for decomposition in found:
        api.validate_hd(decomposition)
    return {"decomp.validate_ms": (perf_counter() - start) / len(found) * 1e3}


def parallel_speedup(api, state: dict, rec) -> dict:
    """Sequential ``hybrid`` search time on the same ops / the parallel arm's."""
    engine = api.DecompositionEngine(cache=False)
    base = 0.0
    for _, text, k, *_ in state["ops"]:
        result = api.decompose(api.parse_hypergraph(text), k, algorithm="hybrid",
                               engine=engine, timeout=drivers.OP_TIMEOUT)
        base += result.statistics.stage_seconds.get("decompose", 0.0)
    parallel = rec.counters.get("core.parallel_s")
    return {"core.parallel_speedup": base / parallel, "core.parallel_base_hybrid_s": base} if parallel else {}


def certificate_bytes(state: dict, rec) -> dict:
    to_json = _lookup("repro.core.codec", "decomposition_to_json")
    if to_json is None or not state.get("file_bytes"):
        return {}
    total = sum(len(to_json(op.output.decomposition)) for op in rec.ops
                if op.kind == "store" and op.output is not None and op.output.decomposition is not None)
    return {"catalog.file_bytes_per_cert_byte": state["file_bytes"] / total} if total else {}


def sql_statements(state: dict, rec) -> dict:
    compile_sql = _lookup("repro.query", "compile_sql")
    store_class = _lookup("repro.query", "SQLStore")
    if compile_sql is None or store_class is None:
        return {}
    statements, seen = 0, set()
    for op in rec.ops:
        shape, mode, source = op.ident.split(":")
        if op.kind != "warm" or op.output is None or (shape, mode) in seen:
            continue
        seen.add((shape, mode))
        plan = op.output.planned.plan
        store = store_class(state["shapes"][shape]["sources"]["mem"])
        statements += len(compile_sql(plan, store.catalog_for(plan)).statements)
    return {"query.sql_statements": statements}


def wire_bytes(api, state: dict, rec) -> dict:
    """Pickled size of one probe-phase request and of its answer."""
    encode_request = _lookup("repro.core.codec", "query_request_to_dict")
    encode_answer = _lookup("repro.core.codec", "query_answer_to_dict")
    answers = [op for op in rec.ops if op.kind == "warm" and op.output is not None]
    if encode_request is None or encode_answer is None or not answers:
        return {}
    request_bytes = answer_bytes = 0
    for op in answers:
        _, shape, mode = op.ident.split(":")
        answer = op.output
        request = encode_request(query=state["queries"][shape]["query"], mode=mode,
                                 database="db-1", timeout=None)
        request_bytes += len(pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL))
        encoded = encode_answer(
            mode=mode, answers=answer.answers, boolean=answer.boolean, count=answer.count,
            width=answer.width, plan_cached=answer.plan_cached, plan_seconds=answer.plan_seconds,
            execution_seconds=answer.execution_seconds, statistics=getattr(answer, "statistics", {}),
        )
        answer_bytes += len(pickle.dumps(encoded, protocol=pickle.HIGHEST_PROTOCOL))
    return {"codec.request_bytes": request_bytes / len(answers),
            "codec.answer_bytes": answer_bytes / len(answers)}


def thread_probe_base(api, driver, seed: int, workdir: str) -> dict:
    """Probe-phase p50 of the thread backend on the same requests (the base
    ``process.roundtrip_overhead_ms`` is taken against)."""
    from ledger import median

    twin = drivers.ServeDriver("serve_thread", "thread", 0, driver.probes, 0)
    state = twin.setup(api, seed, workdir)
    try:
        rec = drivers.Round()
        for request in state["probe"]:
            twin.serve(api, state, rec, request)
    finally:
        twin.teardown(state)
    return {"process.thread_probe_p50_ms": median(rec.samples["warm"]) * 1e3}
