"""The names the perf ledger's probes resolve at run time still resolve.

``benchmarks/perf/probes.py`` looks its targets up by dotted name and
reports a missing one as a ``null`` metric, exit code 0 — a renamed kernel
helper silently drops ``decomp.labels_per_s`` / ``decomp.splits_per_s`` from
the ledger.  This test reads (never edits) the probe source and holds every
``_lookup("<module>", "<path>")`` pair against the package.
"""

from __future__ import annotations

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

