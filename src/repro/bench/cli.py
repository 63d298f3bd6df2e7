"""Command-line entry point for regenerating the paper's experiments.

Usage (installed as ``repro-bench`` or via ``python -m repro.bench``)::

    repro-bench table1 --scale small --budget 2.0
    repro-bench table2
    repro-bench table3
    repro-bench table4
    repro-bench table5
    repro-bench figure1 --cores 1 2 3 4
    repro-bench figure3
    repro-bench depth
    repro-bench all
    repro-bench --list-algorithms

Each command prints the corresponding table or figure data to stdout.  The
defaults are sized for a laptop run; "Paper experiments" in
``docs/benchmarks.md`` says how the output compares with the paper's.

Decomposers are built through :mod:`repro.pipeline.registry` by
:func:`~repro.bench.runner.bench_decomposer` and run through the staged
engine.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from ..pipeline.registry import registry
from .corpus import generate_corpus, hb_large
from .figures import build_figure1, build_figure3, build_recursion_depth_series
from .reporting import (
    render_depth_series,
    render_scaling_series,
    render_scatter,
    render_table,
)
from .runner import run_experiment
from .tables import build_table1, build_table2, build_table3, build_table4, build_table5

__all__ = ["main"]

EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "figure1",
    "figure3",
    "depth",
    "all",
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the tables and figures of the log-k-decomp paper.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=EXPERIMENTS,
        help="which experiment to run",
    )
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
    parser.add_argument("--budget", type=float, default=2.0, help="seconds per (instance, k) run")
    parser.add_argument("--max-width", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cores", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--quiet", action="store_true", help="suppress per-run progress output")
    parser.add_argument(
        "--list-algorithms",
        action="store_true",
        help="list the registered decomposition algorithms and exit",
    )
    return parser


def _render_algorithm_listing() -> str:
    lines = ["Registered decomposition algorithms:"]
    for name, aliases, description in registry.describe():
        alias_note = f" (aliases: {', '.join(aliases)})" if aliases else ""
        lines.append(f"  {name:<12}{alias_note}")
        if description:
            lines.append(f"      {description}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _parser()
    args = parser.parse_args(argv)
    if args.list_algorithms:
        print(_render_algorithm_listing())
        return 0
    if args.experiment is None:
        parser.error("an experiment is required (or use --list-algorithms)")
    if args.max_width < 1:
        parser.error("--max-width must be >= 1")
    if min(args.cores) < 1:
        parser.error("--cores must be >= 1")
    if not args.budget > 0:
        parser.error("--budget must be > 0")
    instances = generate_corpus(scale=args.scale, seed=args.seed)
    progress = None if args.quiet else (lambda line: print(line, file=sys.stderr))

    wanted = EXPERIMENTS[:-1] if args.experiment == "all" else (args.experiment,)
    needs_grid = {"table1", "table3", "table4", "figure3"} & set(wanted)
    data = None
    if needs_grid:
        data = run_experiment(
            instances,
            time_budget=args.budget,
            max_width=args.max_width,
            progress=progress,
        )

    outputs: list[str] = []
    large = hb_large(instances)
    for experiment in wanted:
        if experiment == "table1":
            outputs.append(render_table(build_table1(data)))
        elif experiment == "table2":
            outputs.append(
                render_table(
                    build_table2(large, time_budget=args.budget, max_width=args.max_width)
                )
            )
        elif experiment == "table3":
            outputs.append(render_table(build_table3(data, max_width=args.max_width)))
        elif experiment == "table4":
            outputs.append(render_table(build_table4(data, max_width=args.max_width)))
        elif experiment == "table5":
            outputs.append(
                render_table(
                    build_table5(instances, short_budget=args.budget, max_width=args.max_width)
                )
            )
        elif experiment == "figure1":
            series = build_figure1(
                large,
                core_counts=args.cores,
                time_budget=max(args.budget * 10, 10.0),
                fixed_width=2,
            )
            outputs.append(render_scaling_series(series))
        elif experiment == "figure3":
            outputs.append(render_scatter(build_figure3(data)))
        elif experiment == "depth":
            outputs.append(render_depth_series(build_recursion_depth_series()))

    print("\n\n".join(outputs))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
