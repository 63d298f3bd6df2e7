"""Shared fixtures and configuration for the benchmark harness.

The benchmarks regenerate the paper's tables and figures on a scaled-down
corpus so that ``pytest benchmarks/ --benchmark-only`` finishes on a laptop in
a few minutes.  Scale and time budgets can be raised through environment
variables for a fuller run:

* ``REPRO_BENCH_SCALE``   — corpus scale: ``tiny`` (default), ``small``, ``medium``
* ``REPRO_BENCH_BUDGET``  — seconds per (instance, k) run (default ``0.5``)
* ``REPRO_BENCH_MAXWIDTH``— maximum width searched (default ``4``)

Every benchmark writes its rendered table/figure to ``results/`` so the output
survives the run (see "Paper experiments" in ``docs/benchmarks.md``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench.corpus import generate_corpus, hb_large
from repro.bench.runner import run_experiment

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")
BUDGET = float(os.environ.get("REPRO_BENCH_BUDGET", "3.0"))
MAX_WIDTH = int(os.environ.get("REPRO_BENCH_MAXWIDTH", "4"))


def write_result(name: str, text: str) -> None:
    """Persist a rendered table/figure under results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture(scope="session")
def corpus():
    """The benchmark corpus at the configured scale."""
    return generate_corpus(scale=SCALE)


@pytest.fixture(scope="session")
def large_corpus(corpus):
    """The HB_large analogue: the larger instances of the corpus."""
    instances = hb_large(corpus, min_edges=20)
    # Keep the harness bounded: the scaling/hybrid studies only need a handful
    # of larger instances.
    return instances[:6]


@pytest.fixture(scope="session")
def experiment_data(corpus):
    """The full method x instance grid shared by Tables 1, 3, 4 and Figure 3."""
    return run_experiment(corpus, time_budget=BUDGET, max_width=MAX_WIDTH)
