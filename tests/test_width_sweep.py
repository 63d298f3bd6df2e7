"""The one iterative-deepening loop and the three answers built on it."""

from __future__ import annotations

import pytest

from repro.bench.corpus import Instance
from repro.bench.runner import run_parametrised
from repro.core import DetKDecomposer, DecompositionResult, OptimalHDSolver, hypertree_width
from repro.core.width import width_sweep
from repro.hypergraph import generators


def _scripted(outcomes: dict[int, str]):
    """A ``decide`` answering from a script ('yes', 'no', 'timeout') and logging the widths asked."""
    asked: list[int] = []
    h = generators.cycle(3)

    def decide(k: int) -> DecompositionResult:
        asked.append(k)
        outcome = outcomes[k]
        return DecompositionResult(
            algorithm="scripted",
            hypergraph=h,
            width_parameter=k,
            success=outcome == "yes",
            timed_out=outcome == "timeout",
        )

    return decide, asked


def test_width_sweep_stops_after_the_first_success():
    decide, asked = _scripted({1: "no", 2: "no", 3: "yes", 4: "yes"})
    runs = width_sweep(decide, range(1, 5))
    assert asked == [1, 2, 3]
    assert [run.success for run in runs] == [False, False, True]


def test_width_sweep_stops_after_the_first_timeout():
    decide, asked = _scripted({1: "no", 2: "timeout", 3: "yes"})
    runs = width_sweep(decide, [1, 2, 3])
    assert asked == [1, 2]
    assert runs[-1].timed_out and not runs[-1].success


def test_width_sweep_runs_every_width_when_all_are_refuted():
    decide, asked = _scripted({2: "no", 3: "no"})
    assert [run.width_parameter for run in width_sweep(decide, (2, 3))] == [2, 3]
    assert asked == [2, 3]


def test_width_sweep_of_no_widths_is_empty():
    decide, asked = _scripted({})
    assert width_sweep(decide, []) == []
    assert asked == []


#: The known-width families of tests/test_known_widths.py.
KNOWN_WIDTHS = [
    (generators.path(3), 1),
    (generators.star(5), 1),
    (generators.chain_query(4), 1),
    (generators.snowflake_query(3), 1),
    (generators.cycle(3), 2),
    (generators.cycle(7), 2),
    (generators.triangle_cascade(3), 2),
    (generators.clique(4), 2),
    (generators.clique(5), 3),
    (generators.clique(6), 3),
    (generators.grid(2, 3), 2),
    (generators.hypercycle(4, 3), 2),
]


@pytest.mark.parametrize(
    "hypergraph,expected", KNOWN_WIDTHS, ids=[h.name for h, _ in KNOWN_WIDTHS]
)
def test_the_three_sweeps_agree_on_known_widths(hypergraph, expected):
    width, _ = hypertree_width(hypergraph, algorithm="detk")
    record = run_parametrised(
        Instance(hypergraph.name, "Synthetic", hypergraph, "known"),
        "detk",
        lambda t: DetKDecomposer(timeout=t),
        30.0,
        max_width=5,
    )
    optimal = OptimalHDSolver().solve(hypergraph)
    assert width == record.optimal_width == optimal.width == expected
