"""Unit tests for the table/figure builders and the text reporting."""

from __future__ import annotations

import pytest

from repro.bench.corpus import Instance
from repro.bench.figures import (
    ScalingSeries,
    build_figure1,
    build_figure3,
    build_recursion_depth_series,
)
from repro.bench.reporting import (
    render_depth_series,
    render_scaling_series,
    render_scatter,
    render_table,
)
from repro.bench.runner import run_experiment
from repro.bench.tables import Table, build_table1, build_table2, build_table3, build_table4, build_table5
from repro.hypergraph import generators


@pytest.fixture(scope="module")
def experiment_data():
    instances = [
        Instance("path4", "Application", generators.path(4), "path"),
        Instance("cycle6", "Synthetic", generators.cycle(6), "cycle"),
        Instance("triangles2", "Application", generators.triangle_cascade(2), "triangles"),
        Instance("clique5", "Synthetic", generators.clique(5), "clique"),
    ]
    return run_experiment(instances, time_budget=3.0, max_width=3)


def test_table_helper():
    table = Table("t", ["a", "b"])
    table.add_row([1, "x"])
    assert table.rows == [["1", "x"]]


def test_build_table1(experiment_data):
    table = build_table1(experiment_data)
    assert "Table 1" in table.title
    assert table.rows[-1][0] == "Total"
    # Every method contributes four columns.
    assert len(table.headers) == 3 + 4 * len(experiment_data.methods())
    text = render_table(table)
    assert "Application" in text and "Synthetic" in text


def test_build_table3(experiment_data):
    table = build_table3(experiment_data, max_width=3)
    assert len(table.rows) == 3
    widths_column = [row[0] for row in table.rows]
    assert widths_column == ["1", "2", "3"]
    # Virtual best >= every individual method in each row.
    for row in table.rows:
        virtual = int(row[1])
        assert all(int(cell) <= virtual for cell in row[2:])


def test_build_table4(experiment_data):
    table = build_table4(experiment_data, max_width=3)
    assert len(table.rows) == 3
    for row in table.rows:
        virtual = int(row[1])
        assert all(int(cell) <= virtual for cell in row[2:])
    # Deciding hw <= 1 is at least as easy as hw <= ... for the virtual best
    # on this corpus every question is decided.
    assert int(table.rows[0][1]) == 4


def test_build_table2_small():
    instances = [
        Instance("cycle8", "Synthetic", generators.cycle(8), "cycle"),
        Instance("triangles3", "Application", generators.triangle_cascade(3), "triangles"),
    ]
    table = build_table2(
        instances,
        weighted_thresholds=(5.0,),
        edge_thresholds=(4.0,),
        time_budget=3.0,
        max_width=3,
    )
    methods = [row[0] for row in table.rows]
    assert methods == ["WeightedCount", "EdgeCount", "NewDetKDecomp", "HtdLEO"]
    solved = [int(row[2]) for row in table.rows]
    assert all(value == 2 for value in solved)


def test_build_table5_small():
    instances = [
        Instance("cycle8", "Synthetic", generators.cycle(8), "cycle"),
        Instance("path4", "Application", generators.path(4), "path"),
    ]
    table = build_table5(instances, short_budget=3.0, extension_factor=2.0, max_width=3)
    assert table.rows[-1][0] == "Total"
    total_short = int(table.rows[-1][3])
    total_long = int(table.rows[-1][4])
    assert total_long >= total_short


def test_build_figure3(experiment_data):
    scatter = build_figure3(experiment_data)
    assert set(scatter) == set(experiment_data.methods())
    for points in scatter.values():
        assert len(points) == 4
    text = render_scatter(scatter)
    assert "Figure 3" in text


@pytest.mark.parametrize("fixed_width", [None, 2])
def test_build_figure1_small(fixed_width):
    instances = [
        Instance("cycle8", "Synthetic", generators.cycle(8), "cycle"),
        Instance("triangles3", "Application", generators.triangle_cascade(3), "triangles"),
    ]
    series = build_figure1(
        instances,
        core_counts=(1, 2),
        time_budget=3.0,
        max_width=3,
        hybrid=False,
        fixed_width=fixed_width,
    )
    methods = [line.method for line in series]
    assert "log-k" in methods
    assert any("NewDetKDecomp" in m for m in methods)
    for line in series:
        assert len(line.cores) == len(line.average_runtimes) == 2
    text = render_scaling_series(series)
    assert "Figure 1" in text and "speedup" in text


def test_scaling_series_speedup():
    series = ScalingSeries(method="m")
    series.add(1, 2.0)
    series.add(2, 1.0)
    assert series.speedup() == [1.0, 2.0]


def test_recursion_depth_series():
    # Theorem 4.1 on the default series: log-k-decomp's depth grows by one
    # per doubling of the cycle, det-k-decomp's linearly (n/2 + 1).
    series = build_recursion_depth_series()
    assert set(series) == {"log-k-decomp", "det-k-decomp"}
    assert series["log-k-decomp"] == [(8, 4), (16, 5), (32, 6), (64, 7)]
    assert series["det-k-decomp"] == [(8, 5), (16, 9), (32, 17), (64, 33)]
    text = render_depth_series(series)
    assert "Recursion depth" in text


def test_render_table_alignment():
    table = Table("title", ["col", "value"])
    table.add_row(["a", "1"])
    table.add_row(["longer", "22"])
    text = render_table(table)
    lines = text.splitlines()
    assert lines[0] == "title"
    assert "col" in lines[2]
    # title, separator, header, separator, two rows, closing separator
    assert len(lines) == 7
