"""Tests for the staged DecompositionEngine: stages, cache, components, lifting.

Includes the corpus-wide differential test required by the pipeline design:
engine-on (simplify + cache) and engine-off (raw search) must report the
same success at every width, and every lifted decomposition must pass the
independent validator on the *original* hypergraph.
"""

from __future__ import annotations

import pytest

from repro.core import DetKDecomposer, LogKDecomposer, make_decomposer
from repro.bench.corpus import generate_corpus
from repro.bench.runner import default_method_specs, run_experiment
from repro.decomp import validate_hd
from repro.decomp.decomposition import GeneralizedHypertreeDecomposition
from repro.decomp.validation import is_valid_ghd
from repro.exceptions import ServiceError, SolverError
from repro.hypergraph import Hypergraph, generators
from repro.pipeline import DecompositionEngine, ResultCache


@pytest.fixture
def engine():
    """A fresh engine with a private cache (isolated from the default one)."""
    return DecompositionEngine(cache=ResultCache())


@pytest.fixture
def messy():
    """A hypergraph exercising all reductions plus two components."""
    return Hypergraph(
        {
            "big": ["a", "b", "c", "d"],
            "sub": ["a", "b"],
            "dup": ["d", "c", "b", "a"],
            "tail": ["d", "p1", "p2"],
            # second connected component: a triangle
            "t1": ["u", "v"],
            "t2": ["v", "w"],
            "t3": ["w", "u"],
        },
        name="messy",
    )


def test_engine_result_is_hosted_on_original(engine, messy):
    decomposer = LogKDecomposer(engine=engine)
    result = decomposer.decompose(messy, 2)
    assert result.success
    assert result.decomposition.hypergraph is messy
    validate_hd(result.decomposition)
    assert result.decomposition.width <= 2


def test_stage_timings_are_recorded(engine, messy):
    result = LogKDecomposer(engine=engine).decompose(messy, 2)
    stages = result.statistics.stage_seconds
    assert {"simplify", "cache", "decompose", "lift"} <= set(stages)
    assert all(seconds >= 0 for seconds in stages.values())


def test_engine_off_runs_raw(messy):
    result = LogKDecomposer().decompose_raw(messy, 2)
    assert result.success
    assert result.statistics.stage_seconds == {}
    validate_hd(result.decomposition)


def test_cache_hit_returns_equivalent_result(engine, messy):
    decomposer = LogKDecomposer(engine=engine)
    first = decomposer.decompose(messy, 2)
    hits_before = engine.cache.statistics.hits
    second = decomposer.decompose(messy, 2)
    assert engine.cache.statistics.hits == hits_before + 1
    assert second.success == first.success
    assert "decompose" not in second.statistics.stage_seconds  # no search ran
    validate_hd(second.decomposition)
    assert second.decomposition.width == first.decomposition.width
    # Replayed statistics match the producing run's counters.
    assert second.statistics.recursive_calls == first.statistics.recursive_calls


def test_l1_hit_shares_the_stored_tree(engine):
    decomposer = LogKDecomposer(engine=engine)
    h = generators.cycle(8)  # nothing reduces: the stored tree is hosted on h
    assert decomposer.decompose(h, 2).success
    hit = decomposer.decompose(h, 2)
    entry = engine.cache.get((h.canonical_hash(), 2, decomposer.cache_key()))
    assert hit.decomposition.root is entry.root  # shared, not copied


def test_l1_hit_runs_neither_simplify_nor_lift(engine, messy, monkeypatch):
    import repro.pipeline.engine as engine_module

    decomposer = LogKDecomposer(engine=engine)
    assert decomposer.decompose(messy, 2).success

    def miss_stage(*args):
        raise AssertionError("an L1 hit ran a miss stage")

    monkeypatch.setattr(engine_module, "simplify", miss_stage)
    monkeypatch.setattr(engine_module, "lift_decomposition", miss_stage)
    hit = decomposer.decompose(messy, 2)
    assert hit.success and engine.cache.statistics.hits == 1
    assert set(hit.statistics.stage_seconds) == {"cache"}


def test_l1_hits_share_the_lifted_root_on_the_callers_hypergraph(engine, messy):
    decomposer = LogKDecomposer(engine=engine)
    assert decomposer.decompose(messy, 2).success
    again = Hypergraph(messy.edges_as_dict(), name="again")  # same key, another object
    first, second = decomposer.decompose(messy, 2), decomposer.decompose(again, 2)
    assert engine.cache.statistics.hits == 2
    assert first.decomposition.root is second.decomposition.root
    assert first.decomposition.hypergraph is messy
    assert second.decomposition.hypergraph is again
    validate_hd(first.decomposition)
    validate_hd(second.decomposition)
    entry = engine.cache.get((messy.canonical_hash(), 2, decomposer.cache_key()))
    assert entry.root is first.decomposition.root  # keyed by the input, holding the lifted tree


def test_catalog_answers_once_then_l1(tmp_path, messy):
    path = tmp_path / "cat.db"
    cold = DecompositionEngine(catalog=path)
    assert LogKDecomposer(engine=cold).decompose(messy, 2).success
    cold.catalog.close()

    warm = DecompositionEngine(catalog=path)
    decomposer = LogKDecomposer(engine=warm)
    from_l2 = decomposer.decompose(messy, 2)
    assert "decompose" not in from_l2.statistics.stage_seconds
    assert warm.catalog.stats().hits == 1 and warm.cache.statistics.stores == 1
    key = (messy.canonical_hash(), 2, decomposer.cache_key())
    assert warm.cache.get(key).root is from_l2.decomposition.root
    from_l1 = decomposer.decompose(messy, 2)
    assert warm.catalog.stats().hits == 1  # the catalog was not probed again
    assert from_l1.decomposition.root is from_l2.decomposition.root
    assert from_l1.decomposition.hypergraph is messy
    validate_hd(from_l1.decomposition)
    warm.catalog.close()


def test_catalog_without_l1_reads_through_and_writes_behind(tmp_path, messy):
    path = tmp_path / "cat.db"
    cold = DecompositionEngine(cache=None, catalog=path)
    assert cold.cache is None
    assert LogKDecomposer(engine=cold).decompose(messy, 2).success
    cold.catalog.flush()
    assert cold.catalog.stats().stores == 1
    cold.catalog.close()

    warm = DecompositionEngine(cache=None, catalog=path)
    for _ in range(2):  # no L1: every request reads the catalog
        result = LogKDecomposer(engine=warm).decompose(messy, 2)
        assert result.success and "decompose" not in result.statistics.stage_seconds
        assert result.decomposition.hypergraph is messy
        validate_hd(result.decomposition)
    assert warm.catalog.stats().hits == 2
    warm.catalog.close()


def _cycle8_plus(edge, vertex):
    """cycle(8) plus one edge that ``simplify`` removes as subsumed."""
    return Hypergraph({**generators.cycle(8).edges_as_dict(), edge: [vertex]})


def test_inputs_that_reduce_alike_search_once_each_without_a_catalog(engine):
    one, other = _cycle8_plus("S1", "x1"), _cycle8_plus("S2", "x5")
    assert one.canonical_hash() != other.canonical_hash()
    decomposer = LogKDecomposer(engine=engine)
    for hypergraph in (one, other):
        result = decomposer.decompose(hypergraph, 2)
        assert result.success and "decompose" in result.statistics.stage_seconds
        assert result.decomposition.hypergraph is hypergraph
    assert engine.cache.statistics.stores == 2 and engine.cache.statistics.hits == 0


def test_inputs_that_reduce_alike_share_one_catalog_row(tmp_path):
    engine = DecompositionEngine(catalog=tmp_path / "cat.db")
    decomposer = LogKDecomposer(engine=engine)
    first = decomposer.decompose(_cycle8_plus("S1", "x1"), 2)
    assert "decompose" in first.statistics.stage_seconds
    engine.catalog.flush()
    other = _cycle8_plus("S2", "x5")
    second = decomposer.decompose(other, 2)
    assert second.success and "decompose" not in second.statistics.stage_seconds
    assert second.decomposition.hypergraph is other
    validate_hd(second.decomposition)
    stats = engine.catalog.stats()
    assert (stats.hits, stats.stores) == (1, 1)
    assert engine.cache.statistics.stores == 2
    engine.catalog.close()


def test_component_graft_leaves_the_component_roots_unchanged(engine, monkeypatch):
    two_triangles = Hypergraph(
        {
            "a": ["x", "y"],
            "b": ["y", "z"],
            "c": ["z", "x"],
            "d": ["u", "v"],
            "e": ["v", "w"],
            "f": ["w", "u"],
        }
    )
    decomposer = LogKDecomposer(engine=engine)
    raw = decomposer.decompose_raw
    seen = []

    def spy(host, k, deadline=None):
        result = raw(host, k, deadline)
        seen.append((result.decomposition.root, tuple(result.decomposition.root.children)))
        return result

    monkeypatch.setattr(decomposer, "decompose_raw", spy)
    result = decomposer.decompose(two_triangles, 2)
    assert result.success and len(seen) == 2
    (first, first_children), (second, second_children) = seen
    assert tuple(first.children) == first_children
    assert tuple(second.children) == second_children
    root = result.decomposition.root
    assert root is not first
    assert root.children == first_children + (second,)
    validate_hd(result.decomposition)


def test_cache_shared_across_equal_instances(engine):
    decomposer = DetKDecomposer(engine=engine)
    a = generators.cycle(8)
    b = Hypergraph(dict(reversed(list(a.edges_as_dict().items()))), name="other")
    assert a.canonical_hash() == b.canonical_hash()
    assert decomposer.decompose(a, 2).success
    hits_before = engine.cache.statistics.hits
    result = decomposer.decompose(b, 2)
    assert engine.cache.statistics.hits == hits_before + 1
    assert result.success
    # The hit is re-hosted on the queried hypergraph, not the cached one.
    assert result.decomposition.hypergraph is b
    validate_hd(result.decomposition)


def test_cache_respects_algorithm_configuration(engine):
    h = generators.cycle(8)
    assert DetKDecomposer(engine=engine, use_cache=True).decompose(h, 2).success
    stores_before = engine.cache.statistics.stores
    assert DetKDecomposer(engine=engine, use_cache=False).decompose(h, 2).success
    # Different configuration -> different key -> a second entry, not a hit.
    assert engine.cache.statistics.stores == stores_before + 1


def test_negative_answers_are_cached(engine):
    decomposer = LogKDecomposer(engine=engine)
    h = generators.cycle(8)
    assert not decomposer.decompose(h, 1).success
    hits_before = engine.cache.statistics.hits
    again = decomposer.decompose(h, 1)
    assert not again.success and not again.timed_out
    assert engine.cache.statistics.hits == hits_before + 1


def test_timeout_budget_is_shared_across_components(engine):
    import time as _time

    # Three disjoint hard components: the engine must grant the *call* one
    # budget, not one budget per component.  (clique(9) at k=4 takes seconds
    # to refute per component even with the branch-and-bound kernels.)
    edges: dict[str, list[str]] = {}
    for part in range(3):
        clique = generators.clique(9)
        for name, vertices in clique.edges_as_dict().items():
            edges[f"c{part}_{name}"] = [f"p{part}_{v}" for v in vertices]
    h = Hypergraph(edges, name="three-cliques")
    decomposer = DetKDecomposer(engine=engine, timeout=0.4)
    start = _time.monotonic()
    result = decomposer.decompose(h, 4)
    elapsed = _time.monotonic() - start
    assert result.timed_out
    assert elapsed < 0.4 * 2  # one budget overall, not 3 x 0.4


def test_timeouts_are_not_cached(engine):
    decomposer = DetKDecomposer(engine=engine, timeout=0.0)
    h = generators.clique(7)
    first = decomposer.decompose(h, 3)
    assert first.timed_out
    second = decomposer.decompose(h, 3)
    assert second.timed_out  # a decided answer was never stored


def test_cache_eviction_is_bounded():
    cache = ResultCache(max_entries=2)
    engine = DecompositionEngine(cache=cache)
    decomposer = LogKDecomposer(engine=engine)
    for n in (4, 5, 6, 7):
        decomposer.decompose(generators.cycle(n), 2)
    assert len(cache) <= 2
    assert cache.statistics.evictions >= 2


def test_component_splitting_produces_one_tree(engine, messy):
    result = LogKDecomposer(engine=engine).decompose(messy, 2)
    # Both components are covered by a single decomposition tree.
    covered = set()
    for node in result.decomposition.nodes():
        covered |= node.bag
    assert covered == messy.vertices


def test_raw_search_switches_are_gone():
    # decompose_raw is the one way to run the raw search; the switches that
    # used to bypass the engine's stages are rejected outright.
    from repro.hypergraph.cq import parse_conjunctive_query
    from repro.query import evaluate_query, random_database_for_query

    with pytest.raises(TypeError, match="use_engine"):
        LogKDecomposer(use_engine=False)
    with pytest.raises(TypeError, match="use_engine"):
        make_decomposer("parallel", use_engine=False)
    with pytest.raises(TypeError, match="simplify"):
        DecompositionEngine(simplify=False)
    with pytest.raises(TypeError, match="split_components"):
        DecompositionEngine(split_components=False)
    with pytest.raises(TypeError, match="validate"):
        DecompositionEngine(validate=True)
    query = parse_conjunctive_query("ans(x) :- r(x, y), s(y, x).")
    database = random_database_for_query(query, domain_size=3, tuples_per_relation=4, seed=0)
    with pytest.raises(TypeError, match="simplify"):
        evaluate_query(query, database, simplify=False)


def _workload_with_default_mode(tmp_path):
    from repro.query import Database, QueryWorkload

    QueryWorkload(Database(), default_mode="count")


def _service_with_query_engine(tmp_path):
    from repro.service import DecompositionService

    DecompositionService(workers=1, query_engine=None)


def _catalog_with_failure_threshold(tmp_path):
    from repro.catalog import DecompositionCatalog

    DecompositionCatalog(tmp_path / "catalog.db", failure_threshold=3)


def _labels_with_max_size(tmp_path):
    from repro.decomp.covers import CoverEnumerator

    CoverEnumerator(generators.cycle(4), 3).labels(max_size=1)


def _splitter_with_memo_size(tmp_path):
    from repro.decomp import full_bitcomp
    from repro.decomp.components import ComponentSplitter

    host = generators.cycle(4)
    ComponentSplitter(host, full_bitcomp(host), memo_size=4)


def _trace_with_rounds(tmp_path):
    from repro.pipeline import SimplificationTrace

    host = generators.cycle(4)
    SimplificationTrace(original=host, reduced=host, rounds=0)


def _import_extended_subhypergraph(tmp_path):
    from repro.decomp import ExtendedSubhypergraph  # noqa: F401


def _experiment_with_num_workers(tmp_path):
    run_experiment([], num_workers=2)


def _experiment_with_optimal_budget_factor(tmp_path):
    run_experiment([], optimal_budget_factor=3.0)


def _method_specs_with_num_workers(tmp_path):
    default_method_specs(num_workers=2)


def _service_with_num_workers(tmp_path):
    from repro.service import DecompositionService

    # The pool size is ``workers=``; the default algorithm takes no
    # ``num_workers`` option.
    DecompositionService(num_workers=1)


@pytest.mark.parametrize(
    "call, error",
    [
        (_workload_with_default_mode, TypeError),
        (_service_with_query_engine, ServiceError),
        (_catalog_with_failure_threshold, TypeError),
        (_labels_with_max_size, TypeError),
        (_splitter_with_memo_size, TypeError),
        (_trace_with_rounds, TypeError),
        (_import_extended_subhypergraph, ImportError),
        (_experiment_with_num_workers, TypeError),
        (_experiment_with_optimal_budget_factor, TypeError),
        (_method_specs_with_num_workers, TypeError),
        (_service_with_num_workers, ServiceError),
    ],
    ids=lambda value: getattr(value, "__name__", "").lstrip("_"),
)
def test_settings_without_a_caller_are_gone(call, error, tmp_path):
    # No caller outside the tests set any of these, so none is a setting;
    # the service reports an unknown option as a ServiceError at construction.
    with pytest.raises(error):
        call(tmp_path)


def test_ghd_results_keep_their_kind(engine, messy):
    result = make_decomposer("ghd", engine=engine).decompose(messy, 2)
    assert result.success
    assert isinstance(result.decomposition, GeneralizedHypertreeDecomposition)
    assert result.decomposition.kind == "ghd"
    assert is_valid_ghd(result.decomposition)
    # And a cache hit preserves the kind as well.
    again = make_decomposer("ghd", engine=engine).decompose(messy, 2)
    assert isinstance(again.decomposition, GeneralizedHypertreeDecomposition)


def test_engine_rejects_empty_hypergraph(engine):
    with pytest.raises(SolverError):
        LogKDecomposer(engine=engine).decompose(Hypergraph({}), 1)


# --------------------------------------------------------------------------- #
# corpus differential: engine on vs engine off
# --------------------------------------------------------------------------- #
def _tiny_corpus():
    return [
        inst
        for inst in generate_corpus(scale="tiny")
        if inst.num_edges <= 30
    ]


@pytest.mark.parametrize("algorithm", ["logk", "detk", "hybrid"])
def test_differential_engine_on_vs_off_over_corpus(algorithm):
    engine = DecompositionEngine(cache=ResultCache())
    for instance in _tiny_corpus():
        h = instance.hypergraph
        optimum_on = optimum_off = None
        for k in (1, 2, 3):
            on = make_decomposer(algorithm, engine=engine).decompose(h, k)
            off = make_decomposer(algorithm).decompose_raw(h, k)
            assert on.success == off.success, (instance.name, algorithm, k)
            assert not on.timed_out and not off.timed_out
            if on.success:
                # Lifted decompositions validate on the *original* instance.
                assert on.decomposition.hypergraph is h
                validate_hd(on.decomposition)
                assert on.decomposition.width <= k
                validate_hd(off.decomposition)
                if optimum_on is None:
                    optimum_on, optimum_off = k, k
                break
        assert optimum_on == optimum_off
