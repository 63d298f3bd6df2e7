"""Shared helper of the micro-benchmarks.

Every micro-benchmark writes what it measured to ``results/`` so the output
survives the run.  The paper's tables and figures are ``repro-bench``'s (see
"Paper experiments" in ``docs/benchmarks.md``).
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def write_result(name: str, text: str) -> None:
    """Persist a rendered table/figure under results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
