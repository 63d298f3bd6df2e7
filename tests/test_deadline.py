"""One deadline in every layer: typed error, never a hang, never a wrong answer.

Every layer that can be told "time is up" polls one
:class:`~repro.deadline.Deadline`.  An already-set cancel event and an
already-passed instant must each give the layer's typed outcome — a
``timed_out`` result or :class:`~repro.exceptions.TimeoutExceeded` — within
two seconds of wall time, never an answer.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import LogKDecomposer, OptimalHDSolver, ParallelLogKDecomposer
from repro.core.base import SearchContext
from repro.core.optimal import exact_ghw
from repro.deadline import Deadline
from repro.exceptions import TimeoutExceeded
from repro.hypergraph import Hypergraph, generators
from repro.hypergraph.cq import parse_conjunctive_query
from repro.pipeline.engine import DecompositionEngine
from repro.pipeline.registry import registry
from repro.query import QueryEngine, random_database_for_query
from repro.query.columnar import ColumnStore, PlanExecutor
from repro.query.plan import AnswerMode
from repro.query.sqlgen import SQLExecutor, SQLStore

#: Wall-time bound on any layer's reaction to a deadline that already fired.
PROMPT = 2.0

#: A k = 2 refutation far longer than the bound when nothing stops it.
HARD = generators.with_chords(generators.cycle(30), 4, seed=2)


def _cancelled() -> Deadline:
    event = threading.Event()
    event.set()
    return Deadline(cancel_event=event)


def _passed() -> Deadline:
    return Deadline(at=time.monotonic() - 1.0)


FIRED = pytest.mark.parametrize(
    "fired", [_cancelled, _passed], ids=["cancelled", "instant-passed"]
)


class _Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        assert time.monotonic() - self.start < PROMPT


def _two_components() -> Hypergraph:
    edges = {}
    for copy in ("a", "b"):
        for name, vertices in HARD.edges_as_dict().items():
            edges[f"{copy}{name}"] = [f"{copy}{v}" for v in vertices]
    return Hypergraph(edges)


# --------------------------------------------------------------------------- #
# the object itself
# --------------------------------------------------------------------------- #
def test_an_unarmed_run_has_no_deadline():
    assert Deadline.arm() is None
    assert Deadline.arm(None, None) is None
    assert Deadline.arm(5.0).remaining() <= 5.0


def test_cancellation_wins_and_names_itself():
    fired = _cancelled()
    fired.at = time.monotonic() - 1.0
    assert fired.reason() == "cancelled"
    with pytest.raises(TimeoutExceeded, match="query execution cancelled"):
        fired.check("query execution")
    with pytest.raises(TimeoutExceeded, match="decomposition time budget exhausted"):
        _passed().check("decomposition")
    assert _passed().remaining() == 0.0
    assert Deadline(cancel_event=threading.Event()).reason() is None
    assert Deadline(cancel_event=threading.Event()).remaining() is None


# --------------------------------------------------------------------------- #
# decomposition layers
# --------------------------------------------------------------------------- #
@FIRED
@pytest.mark.parametrize("algorithm", registry.available())
def test_every_sequential_search_stops(algorithm, fired):
    decomposer = registry.build(algorithm)
    with _Timer():
        result = decomposer.decompose_raw(HARD, 2, fired())
    assert result.timed_out and not result.success


@FIRED
def test_parallel_phase_one_stops(fired):
    parallel = ParallelLogKDecomposer(num_workers=2)
    with _Timer():
        result = parallel.decompose_raw(HARD, 2, fired())
    assert result.timed_out and not result.success


@FIRED
def test_forked_workers_stop(fired):
    # Past the coordinator's own checks: the workers get the fired deadline.
    parallel = ParallelLogKDecomposer(num_workers=2, hybrid=False)
    context = SearchContext(HARD, 2, fired())
    search = LogKDecomposer().search
    with _Timer(), pytest.raises(TimeoutExceeded):
        parallel._run_processes(context, search)


@pytest.mark.parametrize("algorithm", ["hybrid", "detk", "logk"])
def test_a_multi_component_engine_run_stops(algorithm):
    host = _two_components()
    engine = DecompositionEngine(cache=False)
    event = threading.Event()
    event.set()
    with _Timer():
        cancelled = engine.decompose(registry.build(algorithm), host, 2, cancel_event=event)
        spent = engine.decompose(registry.build(algorithm, timeout=0.0), host, 2)
    for result in (cancelled, spent):
        assert result.timed_out and not result.success


#: The corpus's syn-csp-l-0.  At k = 6 one det-k label enumeration walks
#: millions of prefixes without yielding a label (~25 s when nothing stops
#: it), so only the cover enumerator's own deadline poll ends it in time.
SYN_CSP = generators.random_csp(45, 60, arity=3, seed=80)


@pytest.mark.parametrize("algorithm", ["detk", "hybrid"])
def test_the_cover_enumerator_polls_a_live_budget(algorithm):
    budget = 2.0
    engine = DecompositionEngine(cache=False)
    start = time.monotonic()
    result = engine.decompose(registry.build(algorithm, timeout=budget), SYN_CSP, 6)
    assert time.monotonic() - start < budget + PROMPT
    assert result.timed_out and not result.success


@pytest.mark.parametrize("algorithm", ["detk", "hybrid"])
def test_the_cover_enumerator_polls_a_fired_cancel(algorithm):
    # Raw: the engine would see the fired event before the search starts.
    with _Timer():
        result = registry.build(algorithm).decompose_raw(SYN_CSP, 6, _cancelled())
    assert result.timed_out and not result.success


def test_the_optimal_solver_stops_inside_its_lower_bound():
    # 16 vertices: the ghw subset DP alone runs for many seconds.
    host = generators.with_chords(generators.cycle(16), 3, seed=1)
    with _Timer():
        result = OptimalHDSolver(timeout=0.0).solve(host)
    assert result.timed_out and result.width is None


@FIRED
def test_the_ghw_dp_polls_its_deadline(fired):
    host = generators.with_chords(generators.cycle(16), 3, seed=1)
    with _Timer(), pytest.raises(TimeoutExceeded, match="optimal solver"):
        exact_ghw(host, deadline=fired())


# --------------------------------------------------------------------------- #
# query executors
# --------------------------------------------------------------------------- #
QUERY = parse_conjunctive_query("ans(x, z) :- r(x,y), s(y,z), t(z,x).")


def _planned():
    engine = QueryEngine(engine=DecompositionEngine(cache=False))
    database = random_database_for_query(QUERY, domain_size=6, tuples_per_relation=30)
    return engine, engine.plan(QUERY, AnswerMode.ENUMERATE)[0].plan, database


@FIRED
def test_columnar_execution_stops_on_each_kernel_arm(kernels, fired):
    engine, plan, database = _planned()
    with _Timer(), pytest.raises(TimeoutExceeded, match="query execution"):
        PlanExecutor(ColumnStore(database), fired()).execute(plan)


@FIRED
def test_sql_execution_stops(fired):
    engine, plan, database = _planned()
    with _Timer(), pytest.raises(TimeoutExceeded, match="query execution"):
        SQLExecutor(SQLStore(database), fired()).execute(plan)


@pytest.mark.parametrize("executor", ["columnar", "sql"])
def test_query_engine_arms_both_executors(executor):
    engine, _, database = _planned()
    event = threading.Event()
    event.set()
    with _Timer():
        with pytest.raises(TimeoutExceeded, match="cancelled"):
            engine.execute(QUERY, database, executor=executor, cancel_event=event)
        with pytest.raises(TimeoutExceeded, match="time budget"):
            engine.execute(QUERY, database, executor=executor, timeout=-1.0)
