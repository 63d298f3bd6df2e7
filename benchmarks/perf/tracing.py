"""Outside-in tracing: timing wrappers installed from the benchmark's own files.

The program has no spans of its own yet (ROADMAP item 1), so a traced run
patches a table of *public* callables with a wrapper that records one span
per call — name, start, end, parent span, and the op (request id) the
calling thread was serving.  Each target is patched in the namespace its
caller resolves it from (``repro.pipeline.engine.simplify``, not
``repro.pipeline.simplify.simplify``) and is looked up by dotted name at run
time: a target a later refactor removed yields a warning and ``None`` for
the metrics fed by it, never a crash.

Inner-loop kernels (``CoverEnumerator.labels``, ``split_bits``) are never
wrapped: a span per label would be most of what it measures.  They are
probed directly (see ``probes.py``).
"""

from __future__ import annotations

import importlib
import json
import os
import threading
from itertools import count
from time import perf_counter

#: (span name, module the caller resolves the name in, attribute path).
#: The span name's prefix up to the first dot is the layer it belongs to.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("hypergraph.canonical_hash", "repro.hypergraph.hypergraph", "Hypergraph.canonical_hash"),
    ("pipeline.engine_decompose", "repro.pipeline.engine", "DecompositionEngine.decompose"),
    ("pipeline.simplify", "repro.pipeline.engine", "simplify"),
    ("pipeline.lift", "repro.pipeline.engine", "lift_decomposition"),
    ("lru.get", "repro.pipeline.engine", "ResultCache.get"),
    ("lru.put", "repro.pipeline.engine", "ResultCache.put"),
    ("core.decompose_raw", "repro.core.base", "Decomposer.decompose_raw"),
    ("core.parallel_decompose_raw", "repro.core.parallel", "ParallelLogKDecomposer.decompose_raw"),
    ("catalog.get", "repro.catalog.store", "DecompositionCatalog.get"),
    ("catalog.put", "repro.catalog.store", "DecompositionCatalog.put"),
    ("catalog.flush", "repro.catalog.store", "DecompositionCatalog.flush"),
    ("catalog.write", "repro.catalog.store", "DecompositionCatalog._write"),
    ("decomp.validate", "repro.catalog.store", "validate_hd"),
    ("codec.cert_decode", "repro.catalog.store", "decomposition_from_json"),
    ("codec.cert_encode", "repro.catalog.store", "decomposition_to_dict"),
    ("query.engine_execute", "repro.query.workload", "QueryEngine.execute"),
    ("query.plan", "repro.query.workload", "QueryEngine.plan"),
    ("query.plan_width_search", "repro.query.workload", "hypertree_width"),
    ("query.plan_join_tree", "repro.query.workload", "join_tree_from_decomposition"),
    ("query.plan_compile", "repro.query.workload", "compile_plan"),
    ("query.columnar_execute", "repro.query.columnar", "PlanExecutor.execute"),
    ("query.columnar_atom_table", "repro.query.columnar", "ColumnStore.atom_table"),
    ("query.columnar_bag_table", "repro.query.columnar", "ColumnStore.bag_table"),
    ("query.sql_compile", "repro.query.workload", "compile_sql"),
    ("query.sql_load", "repro.query.sqlgen", "SQLStore.ensure_loaded"),
    ("query.sql_execute", "repro.query.sqlgen", "SQLExecutor.execute"),
    ("service.submit", "repro.service.service", "DecompositionService.submit"),
    ("service.submit_query", "repro.service.service", "DecompositionService.submit_query"),
    ("service.ticket_result", "repro.service.service", "ServiceTicket.result"),
    ("codec.request_encode", "repro.core.codec", "decompose_request_to_dict"),
    ("codec.request_encode", "repro.core.codec", "query_request_to_dict"),
    ("codec.payload_encode", "repro.core.codec", "hypergraph_to_dict"),
    ("codec.payload_encode", "repro.core.codec", "database_to_dict"),
    ("codec.answer_decode", "repro.core.codec", "decomposition_answer_from_dict"),
    ("codec.answer_decode", "repro.core.codec", "query_answer_from_dict"),
)


def resolve(module_name: str, path: str):
    """``(owner, attribute name, value)`` of a dotted attribute path, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
        *parents, leaf = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, leaf, getattr(owner, leaf)
    except (ImportError, AttributeError):
        return None


class Recorder:
    """In-memory span store; one per traced run."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.missing: list[str] = []
        self._ids = count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        # Forked service/parallel workers inherit the patches; their spans
        # could never be collected, so they stop recording at the fork.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def set_op(self, op: str | None) -> None:
        """Tag the spans the calling thread records from now on with ``op``."""
        self._local.op = op

    def wrap(self, name: str, function):
        """A wrapper recording one span per call of ``function``."""
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, getattr(local, "op", None)))

        traced.__wrapped__ = function
        return traced

    def install(self, warn) -> None:
        """Patch every resolvable target; report the others through ``warn``."""
        for name, module_name, path in TARGETS:
            found = resolve(module_name, path)
            if found is None:
                self.missing.append(name)
                warn(f"trace target {module_name}:{path} not found; {name} spans are absent")
                continue
            owner, leaf, value = found
            self._patched.append((owner, leaf, value))
            setattr(owner, leaf, self.wrap(name, value))

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, value = self._patched.pop()
            setattr(owner, leaf, value)

    def drain(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        del self.spans[: len(spans)]
        return spans


# --------------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------------- #
def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id → duration minus the part of it covered by child spans."""
    own = {span[0]: span[3] - span[2] for span in spans}
    for _, _, start, end, parent, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def aggregate(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span_id, name, start, end, _, _ in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[span_id]
    return table


def write_jsonl(path, spans: list[tuple], origin: float) -> None:
    """One span per line; times are seconds since ``origin``."""
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, name, start, end, parent, op in spans:
            handle.write(
                json.dumps(
                    {
                        "id": span_id,
                        "name": name,
                        "start": round(start - origin, 7),
                        "end": round(end - origin, 7),
                        "parent": parent if parent >= 0 else None,
                        "op": op,
                    }
                )
                + "\n"
            )
