"""The seven workload drivers.

Each driver is a closed loop of one caller (the service drivers: two) over
inputs from ``workloads.py``.  One *round* is ``setup`` (timed as a set-up
sample) then ``run`` (the timed section) then ``check`` and ``teardown``
outside both clocks; every round starts from the same cold state, so rounds
repeat the same work and a run reports medians over its rounds.

Drivers touch the program only through names in ``repro.__all__``,
``repro.query.__all__`` and ``parse_conjunctive_query`` — the surface later
refactors have to keep.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import threading
from collections import defaultdict, deque
from contextlib import contextmanager
from time import perf_counter, process_time, thread_time

import workloads as W
from clock import REFERENCE_SLICE_S, calibration_slice, tree_cpu

OP_TIMEOUT = 60.0  # per-op budget; an op that reaches it is a failed op
SLICE_EVERY = 0.05  # seconds the sampler waits between two calibration slices


class Api:
    """The public callables the drivers use, resolved when a run starts.

    A traced run passes ``wrap`` so the calls the drivers make themselves
    (parsing, the ``decompose`` facade) become spans like the patched ones.
    """

    def __init__(self, wrap=None) -> None:
        import repro
        import repro.query as query
        from repro.hypergraph.cq import parse_conjunctive_query

        wrap = wrap or (lambda name, function: function)
        self.parse_hypergraph = wrap("hypergraph.parse", repro.parse_hypergraph)
        self.parse_query = wrap("hypergraph.parse_cq", parse_conjunctive_query)
        self.decompose = wrap("core.decompose_facade", repro.decompose)
        self.validate_hd = repro.validate_hd
        self.DecompositionEngine = repro.DecompositionEngine
        self.DecompositionService = repro.DecompositionService
        self.QueryEngine = repro.QueryEngine
        self.Database = query.Database
        self.Relation = query.Relation
        self.SQLDatabase = query.SQLDatabase
        self.dump_database = query.dump_database


class Op:
    """One timed operation of a round; an exception inside it fails the op."""

    __slots__ = ("round", "kind", "ident", "output", "error", "start")

    def __init__(self, round_: "Round", kind: str, ident: str) -> None:
        self.round = round_
        self.kind = kind
        self.ident = ident
        self.output = None
        self.error: BaseException | None = None

    def __enter__(self) -> "Op":
        self.round.tag(f"{self.kind}|{self.ident}")
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = perf_counter() - self.start
        self.round.tag(None)
        self.error = exc
        self.round.record(self, elapsed)
        return exc_type is not None and issubclass(exc_type, Exception)


class Round:
    """Everything one round measured: latencies by class, phases, counters.

    Two clocks run side by side: ``cpu()``, the CPU seconds of the process
    tree, and ``clock()``, wall time.  The correctness gate runs between ops
    with both stopped (:meth:`off_the_clocks`): each is its raw reading minus
    what verifying has cost so far.  The gated times are read off a third,
    ``calibrated()``: CPU seconds at the reference box's full speed (see
    ``clock.py``).  Every phase boundary cuts the round, with a calibration
    slice at the cut, and while the round is entered (``with rec:``, the
    gated run) a sampler thread cuts it every ``SLICE_EVERY`` seconds as
    well — inside long ops too; a segment's CPU seconds count times
    ``REFERENCE_SLICE_S`` over the mean of the two slices around it.  Only
    the first output of each (class, op) is kept for the
    probes — a round that held on to every result would report the harness's
    memory as the program's ``peak_rss_mb``.
    """

    def __init__(self, recorder=None, forks_workers: bool = False) -> None:
        self.recorder = recorder  # the traced run's span recorder, if any
        self.tag = recorder.set_op if recorder else (lambda ident: None)
        self.forks_workers = forks_workers  # live descendants have CPU time to count
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.phases: dict[str, float] = {}  # wall seconds
        self.phase_cpu: dict[str, float] = {}  # calibrated CPU seconds of the process tree
        self.phase_ops: dict[str, int] = {}
        self.windows: dict[str, tuple[float, float]] = {}
        self.ops: list[Op] = []
        self.counters: dict[str, float] = {}
        self.failures: list[str] = []
        self.state: dict | None = None  # the driver's state, kept for the probes
        self.spans: list[tuple] = []  # traced rounds: spans of the timed section
        self.setup_spans: list[tuple] = []  # ... and of set-up
        self.attempted = 0
        self.wall = self.cpu_s = self.raw_cpu_s = 0.0  # the timed section on each clock
        self.setup = self.setup_wall = 0.0
        self.unclocked = self.unclocked_cpu = 0.0
        self.slices: list[float] = []
        self._calibrated = 0.0  # calibrated CPU seconds up to the last slice
        self._cut: tuple[float, float] | None = None  # (cpu(), slice) at the last cut
        self._kept: set[tuple[str, str]] = set()
        self._lock = threading.Lock()
        self._slicing = threading.Lock()  # held while cutting and while off the clocks
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample, name="perf-calibration", daemon=True)

    def __enter__(self) -> "Round":
        self._sampler.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._sampler.join()

    def _sample(self) -> None:
        while not self._stop.wait(SLICE_EVERY):
            self.cut(wait=False)

    def clock(self) -> float:
        return perf_counter() - self.unclocked

    def cpu(self) -> float:
        return tree_cpu(self.forks_workers) - self.unclocked_cpu

    def cut(self, wait: bool = True) -> None:
        """Close the open segment with a fresh calibration slice and start
        the next.  The sampler does not ``wait``: if the round is off the
        clocks or being cut right now, it lets this turn pass."""
        if not self._slicing.acquire(blocking=wait):
            return
        try:
            start, cpu = thread_time(), self.cpu()
            value = calibration_slice()
            self.slices.append(value)
            if self._cut is not None:
                self._calibrated += (cpu - self._cut[0]) * REFERENCE_SLICE_S * 2 / (self._cut[1] + value)
            self._cut = (cpu, value)
            # What the cut displaced is the CPU time it took, on either clock:
            # while the sampler waits for its turn on the core, the work goes on.
            spent = thread_time() - start
            self.unclocked_cpu += spent
            self.unclocked += spent
        finally:
            self._slicing.release()

    def calibrated(self) -> float:
        """Calibrated CPU seconds so far; cuts a segment to read them."""
        self.cut()
        return self._calibrated

    @contextmanager
    def off_the_clocks(self):
        """Stop both clocks (and the sampler) around the harness's own work."""
        with self._slicing:
            start, start_cpu = perf_counter(), process_time()
            try:
                yield
            finally:
                self.unclocked_cpu += process_time() - start_cpu  # the harness works in this process
                self.unclocked += perf_counter() - start

    def op(self, kind: str, ident: str) -> Op:
        return Op(self, kind, ident)

    def record(self, op: Op, elapsed: float) -> None:
        with self._lock:  # the service drivers record from two client threads
            self.samples[op.kind].append(elapsed)
            self.ops.append(op)
            self.attempted += 1

    def verify(self, op: Op, check) -> None:
        """Run ``check(op)`` (a failure text or ``None``) outside the clocks
        and outside the trace."""
        recording = self.recorder is not None and self.recorder.enabled
        with self.off_the_clocks():
            if recording:
                self.recorder.enabled = False
            try:
                failure = check(op)
            finally:
                if recording:
                    self.recorder.enabled = True
            if failure:
                self.failures.append(failure)
            if (op.kind, op.ident) in self._kept:
                op.output = None
            self._kept.add((op.kind, op.ident))

    def phase(self, name: str) -> "_Phase":
        return _Phase(self, name)

    def release(self) -> None:
        """Drop the kept outputs and the driver's state; the numbers stay."""
        self.ops, self.state = [], None


class _Phase:
    def __init__(self, round_: Round, name: str) -> None:
        self.round, self.name = round_, name

    def __enter__(self) -> None:
        # A full collection over a service's heap takes 30 ms; whether one
        # lands in a 75 ms phase was a coin toss.  After this one, taken off
        # the clocks, the next is far away.
        with self.round.off_the_clocks():
            gc.collect()
        self.ops = self.round.attempted
        self.start_cpu = self.round.calibrated()
        self.start, self.raw_start = self.round.clock(), perf_counter()

    def __exit__(self, *exc) -> None:
        rec, name = self.round, self.name
        rec.phases[name] = rec.phases.get(name, 0.0) + rec.clock() - self.start
        first = rec.windows.get(name, (self.raw_start, 0.0))[0]
        rec.windows[name] = (first, perf_counter())
        rec.phase_cpu[name] = rec.phase_cpu.get(name, 0.0) + rec.calibrated() - self.start_cpu
        rec.phase_ops[name] = rec.phase_ops.get(name, 0) + rec.attempted - self.ops


def add_counters(into: dict, counters: dict, prefix: str = "") -> None:
    for key, value in counters.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            into[prefix + key] = into.get(prefix + key, 0) + value


# --------------------------------------------------------------------------- #
# decompositions: search, parallel
# --------------------------------------------------------------------------- #
def check_decomposition(api: Api, op: Op, hypergraph, k: int, expected: bool) -> str | None:
    """The correctness gate of one decided ``(H, k)``; ``None`` when it holds."""
    if op.error is not None:
        return f"{op.ident}: raised {op.error!r}"
    result = op.output
    if result is None or result.timed_out:
        return f"{op.ident}: not decided within {OP_TIMEOUT:.0f} s"
    if bool(result.success) != expected:
        return f"{op.ident}: success={result.success}, expected {expected}"
    if expected:
        decomposition = result.decomposition
        if decomposition is None:
            return f"{op.ident}: success without a decomposition"
        if hypergraph is not None and decomposition.hypergraph is not hypergraph:
            return f"{op.ident}: decomposition is not hosted on the caller's hypergraph"
        try:
            api.validate_hd(decomposition)
        except Exception as exc:  # ValidationError; anything else is as wrong
            return f"{op.ident}: validate_hd failed: {exc}"
        if decomposition.width > k:
            return f"{op.ident}: width {decomposition.width} > k={k}"
    return None


class DecompDriver:
    """``decomp_search`` / ``decomp_parallel``: decide a fixed list of ``(H, k)``.

    A round decides every op once on a fresh engine (all first-time keys:
    parse + simplify + hash + search + lift), then re-decides them from
    freshly parsed text ``warm_passes`` times (L1 hits on 48-122-edge
    instances, where parsing and hashing are no longer small).

    The first-time ops cost from 1 ms to 0.7 s each and every one runs once
    a round, so their median latency is whichever op happens to rank in the
    middle — it jumped by 17 % between seeds.  ``cold`` is therefore one
    sample a round, the mean latency of the round's first-time ops; the
    individual latencies are recorded as ``search``.
    """

    imports = "repro"
    cold_phase, warm_phase = "search", "warm"
    STATISTICS = ("recursive_calls", "labels_tried", "subproblems_delegated", "cache_hits",
                  "enum_branches_pruned", "enum_domination_skips", "splitter_memo_hits",
                  "splitter_memo_misses", "bitset_memo_hits", "worker_respawns")

    def __init__(self, name: str, ops, warm_passes: int, options: dict | None = None) -> None:
        self.name = name
        self.table = ops
        self.warm_passes = warm_passes
        self.options = options or {}
        self.forks_workers = "num_workers" in self.options

    def setup(self, api: Api, seed: int, workdir: str) -> dict:
        rng = random.Random(f"{self.name}:{seed}") if seed else None
        ops = []
        for index, (instance, kind, algorithm) in enumerate(self.table):
            k, expected = W.decide_k(instance, kind)
            text = W.instance_text(instance, kind, f"s{seed}o{index}", rng)
            edges = api.parse_hypergraph(text).num_edges  # the input must parse
            ops.append((f"{algorithm}:{kind}:{instance}", text, k, algorithm, kind, expected, edges))
        return {"ops": ops, "engine": api.DecompositionEngine()}

    def run(self, api: Api, state: dict, rec: Round) -> None:
        engine = state["engine"]
        for phase, passes in (("search", 1), ("warm", self.warm_passes)):
            with rec.phase(phase):
                for _ in range(passes):
                    for ident, text, k, algorithm, kind, expected, edges in state["ops"]:
                        hypergraph = None
                        with rec.op(phase, ident) as op:
                            hypergraph = api.parse_hypergraph(text)
                            op.output = api.decompose(
                                hypergraph, k, algorithm=algorithm, engine=engine,
                                timeout=OP_TIMEOUT, **self.options,
                            )
                        rec.verify(op, lambda op: self._check(
                            api, rec, op, hypergraph, k, expected, algorithm, kind, edges))
        rec.samples["cold"].append(rec.phases["search"] / len(state["ops"]))

    def _check(self, api, rec, op, hypergraph, k, expected, algorithm, kind, edges) -> str | None:
        failure = check_decomposition(api, op, hypergraph, k, expected)
        if failure or op.kind != "search":
            return failure
        counters, stats = rec.counters, op.output.statistics
        searched = stats.stage_seconds.get("decompose", 0.0)
        for name in (f"core.{algorithm}_s", f"core.{kind}_s"):
            counters[name] = counters.get(name, 0.0) + searched
        add_counters(counters, stats.stage_seconds, "stage.")
        add_counters(counters, {name: getattr(stats, name, 0) for name in self.STATISTICS})
        depth = getattr(stats, "max_recursion_depth", 0)
        counters["max_recursion_depth"] = max(counters.get("max_recursion_depth", 0), depth)
        if algorithm == "logk":  # Theorem 4.1: depth is O(log |E|)
            ratio = depth / max(1, math.ceil(math.log2(max(2, edges))))
            counters["depth_over_log_bound"] = max(counters.get("depth_over_log_bound", 0.0), ratio)
        return None

    def finish(self, api: Api, state: dict, rec: Round) -> None:
        cache = state["engine"].cache.statistics
        rec.counters["l1_hits"], rec.counters["l1_misses"] = cache.hits, cache.misses

    def teardown(self, state: dict) -> None:
        pass


# --------------------------------------------------------------------------- #
# decompositions: L1 cache + durable catalog
# --------------------------------------------------------------------------- #
class CachedDriver:
    """``decomp_cached``: cheap distinct keys through L1 and one catalog file.

    *store*: fresh engine, empty catalog — search, L1 put, write-behind,
    ``flush()``.  *restart*: fresh engines on the same file, every key once
    — L2 get, certificate decode, validate-on-load, promote.  *L1*: the
    storing engine again, freshly parsed text per op — parse, simplify,
    canonical hash, L1 hit, copy, lift.  The keys fit the 1024-entry
    ``ResultCache``; a restarted engine's empty L1 holds none of them.

    As in :class:`DecompDriver`, ``cold`` is one sample a round: the store
    phase's time per key.  The write-behind thread takes the interpreter
    from the storing ops at random, and their median moved by 12 % between
    seeds where the phase's time moved by 5 %.
    """

    name = "decomp_cached"
    imports = "repro"
    cold_phase, warm_phase = "store", "l1"
    forks_workers = False

    def __init__(self, salts: int, restarts: int, l1_passes: int) -> None:
        self.salts, self.restarts, self.l1_passes = salts, restarts, l1_passes

    def setup(self, api: Api, seed: int, workdir: str) -> dict:
        rng = random.Random(f"{self.name}:{seed}") if seed else None
        keys = []
        for salt in range(self.salts):
            for instance, kind in W.CACHED_TEMPLATES:
                k, expected = W.decide_k(instance, kind)
                text = W.instance_text(instance, kind, f"s{seed}k{salt}", rng)
                api.parse_hypergraph(text)  # the input must parse
                keys.append((f"{instance}#{salt}", text, k, expected))
        path = os.path.join(workdir, "catalog.db")
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)
        return {"keys": keys, "path": path, "engines": []}

    def _pass(self, api: Api, state: dict, rec: Round, kind: str, engine) -> None:
        for ident, text, k, expected in state["keys"]:
            hypergraph = None
            with rec.op(kind, ident) as op:
                hypergraph = api.parse_hypergraph(text)
                op.output = api.decompose(hypergraph, k, engine=engine, timeout=OP_TIMEOUT)
            rec.verify(op, lambda op: self._check(api, rec, op, hypergraph, k, expected))

    @staticmethod
    def _check(api, rec, op, hypergraph, k, expected) -> str | None:
        failure = check_decomposition(api, op, hypergraph, k, expected)
        if failure is None and op.kind == "store":
            add_counters(rec.counters, op.output.statistics.stage_seconds, "stage.")
        return failure

    def run(self, api: Api, state: dict, rec: Round) -> None:
        with rec.phase("store"):
            store = api.DecompositionEngine(catalog=state["path"])
            state["engines"].append(store)
            self._pass(api, state, rec, "store", store)
            store.catalog.flush()
        rec.samples["cold"].append(rec.phases["store"] / len(state["keys"]))
        with rec.phase("restart"):
            for _ in range(self.restarts):
                engine = api.DecompositionEngine(catalog=state["path"])
                state["engines"].append(engine)
                self._pass(api, state, rec, "restart", engine)
        with rec.phase("l1"):
            for _ in range(self.l1_passes):
                self._pass(api, state, rec, "warm", store)

    def finish(self, api: Api, state: dict, rec: Round) -> None:
        counters = rec.counters
        cache = state["engines"][0].cache.statistics
        counters["l1_hits"], counters["l1_misses"] = cache.hits, cache.misses
        for engine in state["engines"]:
            add_counters(counters, engine.catalog.stats().as_dict(), "catalog.")
        keys = len(state["keys"])
        if counters.get("catalog.stores") != keys:
            rec.failures.append(f"catalog stored {counters.get('catalog.stores')} rows for {keys} keys")
        if counters.get("catalog.hits") != keys * self.restarts:
            rec.failures.append(f"restart phase hit the catalog {counters.get('catalog.hits')} times, "
                                f"expected {keys * self.restarts}")

    def teardown(self, state: dict) -> None:
        for engine in state["engines"]:
            engine.catalog.close()
        state["file_bytes"] = os.path.getsize(state["path"])


# --------------------------------------------------------------------------- #
# conjunctive queries
# --------------------------------------------------------------------------- #
def reference_answers(api: Api, queries: dict) -> dict:
    """shape -> the answer rows of the columnar executor on a fresh engine."""
    engine = api.QueryEngine(engine=api.DecompositionEngine())
    return {shape: engine.execute(entry["query"], entry["database"], "enumerate").answers.tuples
            for shape, entry in queries.items()}


def rows_digest(rows) -> tuple[int, str]:
    ordered = sorted(rows)
    return len(ordered), hashlib.sha256(repr(ordered).encode()).hexdigest()[:16]


def check_query(op: Op, mode: str, rows: set) -> str | None:
    """One query answer against the shape's reference answer rows."""
    if op.error is not None:
        return f"{op.ident}: raised {op.error!r}"
    result = op.output
    if result is None:
        return f"{op.ident}: no result"
    if bool(result.boolean) != bool(rows):
        return f"{op.ident}: boolean={result.boolean} with {len(rows)} answers"
    if mode != "boolean" and result.count != len(rows):
        return f"{op.ident}: count={result.count}, expected {len(rows)}"
    if mode == "enumerate" and result.answers.tuples != rows:
        return f"{op.ident}: the answer set differs from the reference"
    return None


class QueryDriver:
    """``query_columnar`` / ``query_sql``: five CQ shapes x three answer modes.

    *cold*: a fresh engine and fresh ``Database`` objects, the first query
    of each shape (width search, plan compile, encode or bulk-load,
    execute).  *warm*: the engine set-up warmed, ``passes`` passes over all
    15 (shape, mode) pairs — on the SQL arm over both an in-memory database
    and an on-disk ``SQLDatabase`` queried in place.
    """

    imports = "repro.query"
    cold_phase, warm_phase = "cold", "warm"
    forks_workers = False

    def __init__(self, name: str, executor: str, passes: int, tuples: int = W.TUPLES_PER_RELATION) -> None:
        self.name, self.executor, self.passes, self.tuples = name, executor, passes, tuples

    @staticmethod
    def database(api: Api, rows: dict):
        database = api.Database()
        for relation, tuples in rows.items():
            database.add(api.Relation(relation, ("a0", "a1"), tuples))
        return database

    def setup(self, api: Api, seed: int, workdir: str) -> dict:
        shapes = {}
        for shape, (text, cold_mode) in W.QUERY_SHAPES.items():
            rows = W.database_rows(shape, seed, self.tuples)
            sources = {"mem": self.database(api, rows)}
            path = None
            if self.executor == "sql":
                path = os.path.join(workdir, f"{shape}.sqlite")
                if os.path.exists(path):
                    os.remove(path)
                sources["disk"] = api.dump_database(sources["mem"], path)
            shapes[shape] = {"text": text, "cold_mode": cold_mode, "rows": rows, "sources": sources,
                             "path": path, "query": api.parse_query(text), "database": sources["mem"]}
        engine = api.QueryEngine(engine=api.DecompositionEngine())
        for entry in shapes.values():
            for mode in W.MODES:
                for database in entry["sources"].values():
                    engine.execute(entry["query"], database, mode, executor=self.executor)
        return {"shapes": shapes, "engine": engine, "seed": seed, "truth": None}

    def run(self, api: Api, state: dict, rec: Round) -> None:
        def verify(op: Op) -> None:
            rec.verify(op, lambda op: self._check(api, state, rec, op))

        with rec.phase("cold"):
            fresh = api.QueryEngine(engine=api.DecompositionEngine())
            databases = []  # a QueryEngine keeps its stores only while the database lives
            for index, (shape, entry) in enumerate(state["shapes"].items()):
                if entry["path"] is not None and index % 2:
                    database, source = api.SQLDatabase(entry["path"]), "disk"
                else:
                    database, source = self.database(api, entry["rows"]), "mem"
                databases.append(database)
                with rec.op("cold", f"{shape}:{entry['cold_mode']}:{source}") as op:
                    query = api.parse_query(entry["text"])
                    op.output = fresh.execute(query, database, entry["cold_mode"], executor=self.executor)
                verify(op)
        engine = state["engine"]
        with rec.phase("warm"):
            for _ in range(self.passes):
                for shape, entry in state["shapes"].items():
                    for mode in W.MODES:
                        for source, database in entry["sources"].items():
                            with rec.op("warm", f"{shape}:{mode}:{source}") as op:
                                query = api.parse_query(entry["text"])
                                op.output = engine.execute(query, database, mode, executor=self.executor)
                            verify(op)

    def _check(self, api: Api, state: dict, rec: Round, op: Op) -> str | None:
        if state["truth"] is None:
            # The reference arm is always the columnar executor, so the SQL
            # workload checks columnar == sql on every shape.
            state["truth"] = reference_answers(api, state["shapes"])
            if self.tuples == W.TUPLES_PER_RELATION:
                for shape, rows in state["truth"].items():
                    count, digest = rows_digest(rows)
                    committed = W.QUERY_DIGESTS[shape]
                    if count != committed[0] or (state["seed"] == 0 and digest != committed[1]):
                        rec.failures.append(f"{shape}: reference answers {(count, digest)} differ "
                                            f"from the committed {committed}")
        shape, mode, source = op.ident.split(":")
        failure = check_query(op, mode, state["truth"][shape])
        if failure:
            return failure
        counters, result = rec.counters, op.output
        if op.kind == "cold":
            add_counters(counters, {"plan_decompose_s": result.planned.decomposition_seconds,
                                    "plan_compile_s": result.planned.compile_seconds,
                                    "plan_cold_s": result.plan_seconds, "cold_ops": 1})
            return None
        statistics = result.execution.statistics.as_dict()
        add_counters(counters, {"plan_hit_s": result.plan_seconds, "warm_ops": 1,
                                f"exec_{mode}_s": result.execution_seconds, f"exec_{mode}_n": 1,
                                "early_exits": int(bool(statistics.get("early_exit")))})
        if source == "disk":
            add_counters(counters, {"disk_exec_s": result.execution_seconds, "disk_exec_n": 1})
        add_counters(counters, statistics, "exec.")
        return None

    def finish(self, api: Api, state: dict, rec: Round) -> None:
        rec.counters["plan_cache_hits"] = state["engine"].plan_cache_hits
        rec.counters["plan_cache_misses"] = state["engine"].plan_cache_misses

    def teardown(self, state: dict) -> None:
        pass


# --------------------------------------------------------------------------- #
# the service
# --------------------------------------------------------------------------- #
class ServeDriver:
    """``serve_thread`` / ``serve_process``: one seeded request stream, two backends.

    *throughput*: two closed-loop client threads drain the stream — fresh
    salted decompositions (refutations of 26-31-edge chorded cycles are
    most of that class's time), repeats over a memoised warm set,
    interactive ``boolean``/``count`` queries and ``enumerate`` queries
    over four shared databases.  *probe*: one client, warm interactive
    queries back to back.  *cold probe*: one client, never-seen cheap
    decompositions back to back.

    Answers are checked after the round, not between requests: a check on
    one client thread would take the interpreter from the other.
    """

    imports = "repro.service"
    cold_phase, warm_phase = "cold_probe", "probe"
    SHARES = (("fresh", 0.12), ("repeat", 0.30), ("interactive", 0.35), ("enumerate", 0.23))

    def __init__(self, name: str, backend: str, stream: int, probes: int, cold_probes: int,
                 tuples: int = W.TUPLES_PER_RELATION) -> None:
        self.name, self.backend, self.tuples = name, backend, tuples
        self.stream, self.probes, self.cold_probes = stream, probes, cold_probes
        self.forks_workers = backend == "process"
        # The direct-engine answers the tickets are checked against; every
        # round of a run serves the same requests, so they are worked out once.
        self._truth: dict | None = None
        self._direct: dict[str, bool] = {}

    @staticmethod
    def _fresh(klass: str, tag: str, index: int, instance: str, kind: str, rng) -> tuple:
        k, expected = W.decide_k(instance, kind)
        text = W.instance_text(instance, kind, f"{tag}{index}", rng)
        return ("decompose", klass, f"{klass}:{instance}:{kind}:{index}", text, k, expected)

    def setup(self, api: Api, seed: int, workdir: str) -> dict:
        rng = random.Random(f"serve:{seed}")  # both backends get the same stream
        relabel_rng = rng if seed else None
        queries = {}
        for shape in W.SERVICE_SHAPES:
            text = W.QUERY_SHAPES[shape][0]
            database = QueryDriver.database(api, W.database_rows(shape, seed, self.tuples))
            queries[shape] = {"text": text, "database": database, "query": api.parse_query(text)}
        warm = []
        for instance in W.WARM_SET:
            k, expected = W.decide_k(instance, W.FIND)
            warm.append(("decompose", "repeat", f"repeat:{instance}",
                         W.instance_text(instance, W.FIND, f"s{seed}w", relabel_rng), k, expected))
        stream = []
        for kind, share in self.SHARES:
            for index in range(round(self.stream * share)):
                if kind == "fresh":
                    # One fresh request in four is a refutation (60-110 ms
                    # of search where a find takes 2 ms).
                    stream.append(self._fresh(
                        "fresh", f"s{seed}t", index, W.FRESH_TEMPLATES[index % len(W.FRESH_TEMPLATES)],
                        W.REFUTE if index % 4 == 0 else W.FIND, relabel_rng))
                elif kind == "repeat":
                    stream.append(warm[index % len(warm)])
                else:
                    shape = W.SERVICE_SHAPES[index % len(W.SERVICE_SHAPES)]
                    mode = "enumerate" if kind == "enumerate" else ("boolean", "count")[index // 4 % 2]
                    stream.append(("query", kind, f"{kind}:{shape}:{mode}", shape, mode, None))
        rng.shuffle(stream)
        probe = [("query", "warm", f"probe:{shape}:{mode}", shape, mode, None)
                 for _ in range(self.probes // 8 + 1)
                 for shape in W.SERVICE_SHAPES for mode in ("boolean", "count")][: self.probes]
        # The cold probe's keys are the cheap templates of ``decomp_cached``:
        # what the service does around a never-seen request is most of their
        # cost, and it is the same in every round (a find on a 26-31-edge
        # cycle moved by 40 % from round to round with the set orders).
        cold = [self._fresh("cold", f"s{seed}c", index, *W.CACHED_TEMPLATES[index % len(W.CACHED_TEMPLATES)],
                            relabel_rng)
                for index in range(self.cold_probes)]

        start = perf_counter()
        service = api.DecompositionService(
            backend=self.backend, workers=2, engine=api.DecompositionEngine()
        )
        state = {"service": service, "queries": queries, "stream": stream, "probe": probe,
                 "cold": cold, "spawn_s": perf_counter() - start, "seed": seed}
        # Warm-up: the warm set is memoised, every (shape, mode) has a plan
        # and its database has reached the worker that owns the key.
        state["warmup"] = warmup = Round()
        for request in warm:
            self.serve(api, state, warmup, request)
        for shape in W.SERVICE_SHAPES:
            for mode in W.MODES:
                self.serve(api, state, warmup, ("query", "warmup", f"warmup:{shape}:{mode}", shape, mode, None))
        return state

    @staticmethod
    def serve(api: Api, state: dict, rec: Round, request: tuple) -> None:
        verb, kind, ident, payload, arg, _ = request
        service = state["service"]
        with rec.op(kind, ident) as op:
            if verb == "decompose":
                ticket = service.submit(api.parse_hypergraph(payload), arg, timeout=OP_TIMEOUT)
            else:
                entry = state["queries"][payload]
                ticket = service.submit_query(api.parse_query(entry["text"]), entry["database"], arg)
            op.output = ticket.result(timeout=OP_TIMEOUT)

    def run(self, api: Api, state: dict, rec: Round) -> None:
        pending = deque(state["stream"])

        def client() -> None:
            while True:
                try:
                    request = pending.popleft()
                except IndexError:
                    return
                self.serve(api, state, rec, request)

        with rec.phase("throughput"):
            clients = [threading.Thread(target=client, name=f"perf-client-{i}") for i in range(2)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
        with rec.phase("probe"):
            for request in state["probe"]:
                self.serve(api, state, rec, request)
        with rec.phase("cold_probe"):
            for request in state["cold"]:
                self.serve(api, state, rec, request)

    def finish(self, api: Api, state: dict, rec: Round) -> None:
        """Every ticket equals the direct-engine answer; then the counters."""
        if self._truth is None:
            self._truth = reference_answers(api, state["queries"])
        truth, direct = self._truth, self._direct
        requests = {request[2]: request for request in state["stream"] + state["cold"]}
        engine = api.DecompositionEngine()

        def check(op: Op) -> str | None:
            request = requests.get(op.ident)
            if request is None or request[0] == "query":
                _, shape, mode = op.ident.split(":")
                failure = check_query(op, mode, truth[shape])
                if failure is None and op.kind != "warmup":
                    # the engine's own time, as the answer reports it (the
                    # worker's, under the process backend)
                    prefix = "probe_exec" if op.kind == "warm" else f"exec_{mode}"
                    add_counters(rec.counters, {f"{prefix}_s": op.output.execution_seconds, f"{prefix}_n": 1})
                return failure
            _, _, _, text, k, expected = request
            failure = check_decomposition(api, op, None, k, expected)
            if failure is None:
                if text not in direct:
                    direct[text] = api.decompose(
                        api.parse_hypergraph(text), k, engine=engine, timeout=OP_TIMEOUT).success
                if direct[text] != op.output.success:
                    failure = f"{op.ident}: the ticket's answer differs from the direct engine's"
            return failure

        for op in rec.ops + state["warmup"].ops:
            rec.verify(op, check)
        stats = state["service"].stats()
        if stats.failed:
            rec.failures.append(f"the service counted {stats.failed} failed requests")
        counters = rec.counters
        for name in ("submitted", "completed", "computations", "coalesced", "fast_path_hits", "failed"):
            counters[name] = getattr(stats, name)
        health = stats.health if isinstance(stats.health, dict) else {}
        backend = health.get("process_backend") or {}
        counters["respawns"] = health.get("worker_respawns", 0) + backend.get("respawns", 0)
        counters["spawn_s"] = state["spawn_s"]

    def teardown(self, state: dict) -> None:
        state["service"].shutdown()


# --------------------------------------------------------------------------- #
# the seven workloads at the two scales
# --------------------------------------------------------------------------- #
SMOKE_SEARCH = (("cc72", W.REFUTE, "logk"), ("jq26", W.FIND, "logk"),
                ("jq26", W.REFUTE, "hybrid"), ("cc72", W.FIND, "hybrid"))
SMOKE_PARALLEL = (("cc72", W.REFUTE, "parallel"), ("cc48", W.FIND, "parallel"))


def build(scale: str, workers: int) -> dict[str, object]:
    """name -> driver.  ``full`` sizes are frozen; ``smoke`` only proves the plumbing."""
    parallel = {"num_workers": workers}
    if scale == "smoke":
        return {
            "decomp_search": DecompDriver("decomp_search", SMOKE_SEARCH, 1),
            "decomp_parallel": DecompDriver("decomp_parallel", SMOKE_PARALLEL, 1, parallel),
            "decomp_cached": CachedDriver(2, 1, 2),
            "query_columnar": QueryDriver("query_columnar", "columnar", 1, 60),
            "query_sql": QueryDriver("query_sql", "sql", 1, 60),
            "serve_thread": ServeDriver("serve_thread", "thread", 24, 8, 2, 60),
            "serve_process": ServeDriver("serve_process", "process", 24, 8, 2, 60),
        }
    return {
        "decomp_search": DecompDriver("decomp_search", W.SEARCH_OPS, 8),
        "decomp_parallel": DecompDriver("decomp_parallel", W.PARALLEL_OPS, 8, parallel),
        "decomp_cached": CachedDriver(54, 2, 6),
        "query_columnar": QueryDriver("query_columnar", "columnar", 12),
        "query_sql": QueryDriver("query_sql", "sql", 2),
        "serve_thread": ServeDriver("serve_thread", "thread", 280, 160, 216),
        "serve_process": ServeDriver("serve_process", "process", 280, 160, 216),
    }
