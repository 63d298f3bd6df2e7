"""Tier-1 smoke test of the perf ledger (``--scale smoke``, a few seconds).

Runs the one command over all seven workloads with tracing on and checks
that everything ``BENCHMARK.json`` names is emitted.  Timings are not
asserted: the smoke sizes only prove the plumbing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(HERE))
import ledger  # noqa: E402


def test_manifest_matches_the_ledger():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in manifest["workloads"]] == [name for name, _ in ledger.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in ledger.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (m.name, m.unit, m.better) for m in ledger.PER_LAYER
    ]
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in manifest[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)


def test_every_workload_emits_every_metric(tmp_path):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "smoke.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--seconds", "0",
         "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(out.read_text())
    assert result["claim"] is None
    assert list(result["workloads"]) == [w["name"] for w in manifest["workloads"]]
    for workload, entry in result["workloads"].items():
        assert entry["failed"] == 0 and entry["failed_share"] == 0, (workload, entry["failures"])
        assert entry["attempted"] >= 1
        for metric in manifest["end_to_end"]:
            cell = entry["end_to_end"][metric["name"]]
            assert cell["unit"] == metric["unit"] and cell["median"] > 0, (workload, metric["name"], cell)
            assert cell["n"] >= 1
        for metric in manifest["per_layer"]:
            cell = entry["per_layer"][metric["name"]]
            assert cell["unit"] == metric["unit"], (workload, metric["name"])
            assert cell["median"] is None or isinstance(cell["median"], (int, float))
        assert set(entry["per_layer"]) == {m["name"] for m in manifest["per_layer"]}
