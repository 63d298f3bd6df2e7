"""Unit tests for the exact optimal-width solver (HtdLEO substitute)."""

from __future__ import annotations

import time

import pytest

from repro.core import DetKDecomposer, OptimalHDSolver
from repro.core.optimal import exact_ghw, minimum_edge_cover_size
from repro.decomp import validate_hd
from repro.exceptions import SolverError
from repro.hypergraph import Hypergraph, generators


def test_minimum_edge_cover_simple():
    h = generators.cycle(4)
    # Cover the whole vertex set of a 4-cycle: two opposite edges suffice.
    assert minimum_edge_cover_size(h, h.all_vertices_mask) == 2
    assert minimum_edge_cover_size(h, 0) == 0
    assert minimum_edge_cover_size(h, h.edge_bits(0)) == 1


def test_minimum_edge_cover_respects_limit():
    h = generators.cycle(6)
    value = minimum_edge_cover_size(h, h.all_vertices_mask, limit=1)
    assert value == 2  # limit + 1 signals "no cover within the limit"


def test_exact_ghw_known_values():
    assert exact_ghw(generators.path(4)) == 1
    assert exact_ghw(generators.cycle(5)) == 2
    assert exact_ghw(generators.cycle(8)) == 2
    assert exact_ghw(generators.clique(5)) == 3
    assert exact_ghw(generators.triangle_cascade(3)) == 2


def test_exact_ghw_vertex_limit():
    h = generators.cycle(30)
    assert exact_ghw(h, vertex_limit=10) is None


def test_solver_rejects_bad_configuration():
    with pytest.raises(SolverError):
        OptimalHDSolver(max_width=0)
    with pytest.raises(SolverError):
        OptimalHDSolver().solve(Hypergraph({}))


@pytest.mark.parametrize(
    "hypergraph,expected",
    [
        (generators.path(5), 1),
        (generators.star(4), 1),
        (generators.cycle(3), 2),
        (generators.cycle(7), 2),
        (generators.triangle_cascade(2), 2),
        (generators.clique(4), 2),
        (generators.clique(5), 3),
        (generators.grid(2, 3), 2),
        (generators.grid(3, 3), 2),
    ],
)
def test_optimal_widths_match_known_values(hypergraph, expected):
    outcome = OptimalHDSolver().solve(hypergraph)
    assert outcome.solved
    assert outcome.width == expected
    validate_hd(outcome.decomposition)
    assert outcome.decomposition.width == expected
    assert outcome.lower_bound <= expected


def test_optimal_agrees_with_iterative_deepening():
    for hypergraph in (generators.cycle(9), generators.hypercycle(4, 3), generators.grid(2, 4)):
        outcome = OptimalHDSolver().solve(hypergraph)
        assert outcome.solved
        # The optimum width must be confirmed by det-k-decomp and refuted below.
        assert DetKDecomposer().decompose(hypergraph, outcome.width).success
        if outcome.width > 1:
            assert not DetKDecomposer().decompose(hypergraph, outcome.width - 1).success


def test_lower_bound_skips_acyclic_dp():
    outcome = OptimalHDSolver().solve(generators.path(6))
    assert outcome.width == 1
    assert outcome.lower_bound == 1


def test_timeout_reported():
    outcome = OptimalHDSolver(timeout=0.0).solve(generators.clique(7))
    assert outcome.timed_out
    assert not outcome.solved
    assert outcome.width is None


def test_max_width_cap():
    # K8 has width 4; capping the search at 3 must return "unsolved" without
    # a timeout.
    outcome = OptimalHDSolver(max_width=2, timeout=30.0).solve(generators.clique(6))
    assert not outcome.solved
    assert not outcome.timed_out


def test_large_instance_falls_back_without_dp():
    h = generators.cycle(40)
    outcome = OptimalHDSolver(dp_vertex_limit=10).solve(h)
    assert outcome.solved
    assert outcome.width == 2
    assert outcome.lower_bound == 2  # non-acyclic lower bound without the DP


@pytest.mark.parametrize("timeout", [5.0, None], ids=["budget", "unbounded"])
def test_solver_leaves_the_default_engine_cache_alone(timeout):
    # The stand-in's time is a search time: it neither reads the process-wide
    # result cache (with timeout=None a second solve would be a hit) nor
    # litters it (a finite budget is a float in the key, so each width tried
    # would store an entry nothing can hit).
    from repro.pipeline.engine import DecompositionEngine, default_engine, set_default_engine

    previous = default_engine()
    try:
        set_default_engine(DecompositionEngine())
        cache = default_engine().cache
        before = (cache.statistics, len(cache))
        solver = OptimalHDSolver(timeout=timeout)
        assert [solver.solve(generators.cycle(8)).width for _ in range(2)] == [2, 2]
        assert (cache.statistics, len(cache)) == before
    finally:
        set_default_engine(previous)


def test_a_budget_bounds_the_ghw_lower_bound():
    # The subset DP polls the solver's deadline: unbounded, the 16-vertex DP
    # alone runs for many seconds.
    host = generators.with_chords(generators.cycle(16), 3, seed=1)
    start = time.monotonic()
    result = OptimalHDSolver(timeout=0.05).solve(host)
    assert result.timed_out and result.width is None
    assert time.monotonic() - start < 1.0
