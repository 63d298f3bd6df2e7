"""The names the perf ledger's probes resolve at run time still resolve.

``benchmarks/perf/probes.py`` looks its targets up by dotted name and
reports a missing one as a ``null`` metric, exit code 0 — a renamed kernel
helper silently drops ``decomp.labels_per_s`` / ``decomp.splits_per_s`` from
the ledger.  This test reads (never edits) the probe source and holds every
``_lookup("<module>", "<path>")`` pair against the package, and likewise
every trace target of ``benchmarks/perf/tracing.py``.
"""

from __future__ import annotations

import ast
import importlib
import re
from functools import reduce
from pathlib import Path

import pytest

from repro.decomp.components import ComponentSplitter

PROBES = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "probes.py"
LOOKUPS = sorted(set(re.findall(r'_lookup\(\s*"([\w.]+)"\s*,\s*"([\w.]+)"\s*\)', PROBES.read_text())))


def test_probe_source_names_the_search_kernels():
    assert ("repro.decomp.extended", "full_bitcomp") in LOOKUPS
    assert ("repro.decomp.components", "ComponentSplitter") in LOOKUPS
    assert hasattr(ComponentSplitter, "split_bits")  # called on the resolved class


@pytest.mark.parametrize("module,path", LOOKUPS, ids=[f"{m}:{p}" for m, p in LOOKUPS])
def test_probe_lookup_resolves(module, path):
    reduce(getattr, path.split("."), importlib.import_module(module))  # raises when gone



# The tracer patches its ``TARGETS`` by dotted name as well and turns a
# missing one into a warning and ``null`` layer rows; hold those names too.
TRACING = PROBES.with_name("tracing.py")
TARGETS = next(
    ast.literal_eval(node.value)
    for node in ast.parse(TRACING.read_text()).body
    if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS"
)
#: Targets known to be stale, with the reason; each must keep failing to resolve.
STALE = {
    ("query.plan_width_search", "repro.query.workload", "hypertree_width"): (
        "QueryEngine.plan calls smallest_width since the width sweep was unified; "
        "the tracer still names hypertree_width (ROADMAP 5(g))"
    ),
}


@pytest.mark.parametrize(
    "span,module,path",
    [
        pytest.param(*target, marks=pytest.mark.xfail(strict=True, reason=STALE[target]))
        if target in STALE
        else target
        for target in TARGETS
    ],
    ids=[f"{span}:{module}:{path}" for span, module, path in TARGETS],
)
def test_trace_target_resolves(span, module, path):
    reduce(getattr, path.split("."), importlib.import_module(module))  # raises when gone
