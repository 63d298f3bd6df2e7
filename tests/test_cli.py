"""Unit tests for the repro-bench command line interface."""

from __future__ import annotations

import pytest

from repro.bench.cli import main
from repro.core.optimal import OptimalHDSolver

#: One corpus, budget and width bound for every table test, so that they ask
#: for the same runs (see ``tiny_corpus_run``).
_TINY = ["--scale", "tiny", "--budget", "0.3", "--max-width", "2"]


@pytest.fixture(scope="session")
def tiny_corpus_run():
    """The direct optimal solver's tiny-corpus outcomes, computed once per session.

    Most of those runs wait out their time budget and they are two thirds of
    a grid's wall time; the table tests ask for the same (instance, budget,
    width) run up to three times between them.  Everything else — the CLI,
    the grid, the parametrised methods, the tables — runs for real each time.
    """
    outcomes = {}
    solve = OptimalHDSolver.solve

    def solve_once(self, hypergraph):
        key = (hypergraph.canonical_hash(), self.timeout, self.max_width)
        if key not in outcomes:
            outcomes[key] = solve(self, hypergraph)
        return outcomes[key]

    return solve_once


@pytest.fixture
def shared_run(tiny_corpus_run, monkeypatch):
    monkeypatch.setattr(OptimalHDSolver, "solve", tiny_corpus_run)


def test_depth_experiment(capsys):
    exit_code = main(["depth", "--quiet"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Recursion depth" in out
    assert "log-k-decomp" in out


def test_ablation_experiment(capsys):
    exit_code = main(["ablation", "--quiet"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Ablation" in out
    assert "no balancedness requirement" in out


def test_table1_on_tiny_corpus(capsys, shared_run):
    exit_code = main(["table1", *_TINY, "--quiet"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Total" in out


def test_table5_on_tiny_corpus(capsys, shared_run):
    exit_code = main(["table5", *_TINY, "--quiet"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Table 5" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["table99"])


def test_progress_goes_to_stderr(capsys, shared_run):
    main(["table4", *_TINY])
    captured = capsys.readouterr()
    assert "Table 4" in captured.out
    assert captured.err  # per-run progress lines


def test_list_algorithms(capsys):
    exit_code = main(["--list-algorithms"])
    assert exit_code == 0
    out = capsys.readouterr().out
    for name in ("logk", "detk", "hybrid", "parallel", "ghd"):
        assert name in out
    assert "log-k-decomp" in out  # aliases are shown


def test_experiment_required_without_listing():
    with pytest.raises(SystemExit):
        main(["--quiet"])


def test_no_simplify_flag_is_gone(capsys):
    # The raw search is Decomposer.decompose_raw; the harness always runs
    # the staged engine, so the flag that bypassed it is an argparse error.
    with pytest.raises(SystemExit) as exit_info:
        main(["table1", "--no-simplify", "--quiet"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --no-simplify" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--scale", "tiny", "--max-width", "0"],
        ["figure1", "--cores", "0"],
        ["figure1", "--cores", "1", "0"],
        ["table4", "--budget", "-1"],
        ["table4", "--budget", "0"],
    ],
)
def test_bad_values_rejected_before_any_run(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--quiet"])
    assert exit_info.value.code == 2
    assert "must be" in capsys.readouterr().err
