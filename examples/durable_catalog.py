"""The durable decomposition catalog: restart-warm serving from SQLite.

Run with ``python examples/durable_catalog.py``.

The example simulates a service restart.  A first engine computes a mixed
workload with a catalog file mounted as the durable L2 tier behind its
in-memory result cache and is then thrown away; a second, freshly
constructed engine over the same file answers the identical workload
entirely from the catalog — zero searches run, every loaded certificate is
re-validated before use — and the provenance of what was persisted is
printed the way ``python -m repro.catalog list`` would show it.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import DecompositionEngine, LogKDecomposer, validate_hd
from repro.catalog import DecompositionCatalog
from repro.hypergraph import generators


def workload():
    return [
        (generators.cycle(6), 2),
        (generators.cycle(10), 2),
        (generators.grid(2, 3), 2),
        (generators.clique(5), 3),
        (generators.cycle(8), 1),  # a decided "no" is persisted too
    ]


def run(engine: DecompositionEngine, label: str) -> None:
    decomposer = LogKDecomposer(engine=engine)
    start = time.perf_counter()
    searches = 0
    for hypergraph, k in workload():
        result = decomposer.decompose(hypergraph, k)
        if "decompose" in result.statistics.stage_seconds:
            searches += 1
        if result.success:
            validate_hd(result.decomposition)
    elapsed = (time.perf_counter() - start) * 1000
    stats = engine.catalog.stats()  # every put was committed when it returned
    print(
        f"{label:<13}: {elapsed:7.1f} ms, {searches} searches ran, "
        f"L2 hits={stats.hits} stores={stats.stores} "
        f"validate-rejects={stats.validate_rejects}"
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "decompositions.db")

        print(f"catalog file: {path}")
        cold = DecompositionEngine(catalog=path)
        run(cold, "cold process")
        cold.catalog.close()  # releases the file

        # A brand-new engine over the same file: the "restarted" process.
        warm = DecompositionEngine(catalog=path)
        run(warm, "after restart")
        assert warm.catalog.stats().hits == len(workload())
        warm.catalog.close()

        print("\npersisted entries (with provenance):")
        with DecompositionCatalog(path) as catalog:
            for record in catalog.entries():
                outcome = "hd found" if record.success else "no hd  "
                print(
                    f"  {record.canonical_hash[:12]}  k={record.k}  {outcome}  "
                    f"{record.algorithm}  {record.wall_seconds * 1000:6.2f} ms  "
                    f"{record.created_at}  v{record.code_version}"
                )


if __name__ == "__main__":
    main()
