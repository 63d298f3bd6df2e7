"""Tests for the durable decomposition catalog (the SQLite L2 tier).

Covers the acceptance criteria of the catalog subsystem: restart-warm
serving with zero recomputation, validate-on-load rejecting tampered rows,
two processes sharing one file with exactly-once row semantics, graceful
fallback to memory-only on a corrupt file, and namespace isolation.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import sqlite3

import pytest

from repro import DecompositionEngine, Hypergraph, LogKDecomposer, validate_hd
from repro.catalog import DecompositionCatalog
from repro.hypergraph import generators
from repro.service import DecompositionService

#: The shared mixed workload: three positives and one negative decision.
WORKLOAD = (
    ("cycle6", 2, True),
    ("cycle8", 2, True),
    ("grid23", 2, True),
    ("cycle8", 1, False),
)


def _instance(tag):
    return {
        "cycle6": lambda: generators.cycle(6),
        "cycle8": lambda: generators.cycle(8),
        "grid23": lambda: generators.grid(2, 3),
    }[tag]()


def _run_workload(engine):
    decomposer = LogKDecomposer(engine=engine)
    results = []
    for tag, k, expect in WORKLOAD:
        result = decomposer.decompose(_instance(tag), k)
        assert result.success is expect
        if result.success:
            validate_hd(result.decomposition)
        results.append(result)
    return results


# --------------------------------------------------------------------------- #
# direct put/get API
# --------------------------------------------------------------------------- #
def test_put_get_roundtrip_with_provenance(tmp_path):
    from repro import hypertree_width

    h = generators.cycle(6)
    width, hd = hypertree_width(h)
    with DecompositionCatalog(tmp_path / "cat.db", synchronous_writes=True) as catalog:
        catalog.put(
            h,
            width,
            ("test-config",),
            algorithm="test",
            success=True,
            decomposition=hd,
            wall_seconds=0.25,
        )
        record = catalog.get(h, width, ("test-config",))
        assert record is not None and record.success
        assert record.algorithm == "test"
        assert record.wall_seconds == 0.25
        assert record.validated
        assert record.code_version
        assert record.created_at  # ISO timestamp
        restored = record.kind(h, record.root)
        validate_hd(restored)
        assert restored.width == hd.width
        assert len(catalog) == 1
        stats = catalog.stats()
        assert stats.hits == 1 and stats.stores == 1 and stats.validate_rejects == 0


def test_stored_statistics_keep_their_bytes_and_old_rows_still_load(tmp_path):
    from repro.core.base import SearchStatistics

    h = generators.cycle(8)
    stats = SearchStatistics(recursive_calls=7, labels_tried=31, worker_respawns=1)
    stats.record_stage("decompose", 0.5)  # timings never reach the file
    # The ``statistics`` column as every release so far has written it:
    # all counters, sorted, no ``stage_seconds``.
    stored = json.dumps(
        {
            name: getattr(stats, name)
            for name in SearchStatistics.__dataclass_fields__
            if name != "stage_seconds"
        },
        sort_keys=True,
    )
    path = tmp_path / "cat.db"
    with DecompositionCatalog(path, synchronous_writes=True) as catalog:
        catalog.put(
            h, 1, ("cfg",), algorithm="test", success=False, decomposition=None, stats=stats
        )
    with sqlite3.connect(path) as connection:
        assert connection.execute("SELECT statistics FROM entries").fetchall() == [(stored,)]
        # A row from before ``worker_respawns`` existed, and one from a later
        # release with a counter this one does not know.
        older = json.loads(stored)
        del older["worker_respawns"]
        older["counter_of_a_later_release"] = 5
        connection.execute("UPDATE entries SET statistics = ?", (json.dumps(older),))
    with DecompositionCatalog(path) as catalog:
        record = catalog.get(h, 1, ("cfg",))
    assert record is not None and record.success is False
    assert record.stats == SearchStatistics(recursive_calls=7, labels_tried=31)


def test_negative_entries_roundtrip(tmp_path):
    h = generators.cycle(8)
    with DecompositionCatalog(tmp_path / "cat.db", synchronous_writes=True) as catalog:
        catalog.put(h, 1, ("cfg",), algorithm="test", success=False, decomposition=None)
        record = catalog.get(h, 1, ("cfg",))
        assert record is not None
        assert record.success is False and record.root is None


def test_catalog_refuses_to_store_invalid_certificates(tmp_path):
    from repro.decomp import DecompositionNode, HypertreeDecomposition

    h = generators.cycle(6)
    # A structurally fine but semantically invalid HD: nothing is covered.
    bogus = HypertreeDecomposition(h, DecompositionNode(frozenset(), frozenset()))
    with DecompositionCatalog(tmp_path / "cat.db", synchronous_writes=True) as catalog:
        catalog.put(h, 2, ("cfg",), algorithm="test", success=True, decomposition=bogus)
        assert len(catalog) == 0
        assert catalog.stats().errors == 1


# --------------------------------------------------------------------------- #
# engine integration: read-through, write-behind, restart-warm
# --------------------------------------------------------------------------- #
def test_restart_warm_engine_recomputes_nothing(tmp_path):
    path = str(tmp_path / "cat.db")

    cold = DecompositionEngine(catalog=path)
    _run_workload(cold)
    cold.catalog.flush()
    cold_stats = cold.catalog.stats()
    assert cold_stats.stores == len(WORKLOAD)
    assert cold_stats.hits == 0
    cold.catalog.close()

    # A fresh engine on the same file: the previous process's warm set.
    warm = DecompositionEngine(catalog=path)
    results = _run_workload(warm)
    warm_stats = warm.catalog.stats()
    assert warm_stats.hits == len(WORKLOAD)
    assert warm_stats.misses == 0
    assert warm_stats.stores == 0  # nothing recomputed, nothing re-stored
    assert warm_stats.validate_rejects == 0
    for result in results:
        # The decompose stage never ran: every answer came from the catalog.
        assert "decompose" not in result.statistics.stage_seconds
    warm.catalog.close()


def test_restart_warm_service_recomputes_nothing(tmp_path):
    path = str(tmp_path / "cat.db")

    engine = DecompositionEngine(catalog=path)
    with DecompositionService(workers=2, engine=engine) as service:
        for tag, k, expect in WORKLOAD:
            assert service.submit(_instance(tag), k).result(timeout=60).success is expect
    engine.catalog.flush()
    engine.catalog.close()

    # "Kill and restart": a fresh engine and service over the same file.
    engine = DecompositionEngine(catalog=path)
    with DecompositionService(workers=2, engine=engine) as service:
        for tag, k, expect in WORKLOAD:
            result = service.submit(_instance(tag), k).result(timeout=60)
            assert result.success is expect
            if result.success:
                validate_hd(result.decomposition)
            assert "decompose" not in result.statistics.stage_seconds
        stats = service.stats()
    assert stats.catalog is not None
    assert stats.catalog.hits == len(WORKLOAD)
    assert stats.catalog.stores == 0
    assert stats.catalog.validate_rejects == 0
    assert stats.catalog.as_dict()["hits"] == len(WORKLOAD)
    engine.catalog.close()


def test_l2_hit_promotes_into_l1(tmp_path):
    path = str(tmp_path / "cat.db")
    cold = DecompositionEngine(catalog=path)
    LogKDecomposer(engine=cold).decompose(generators.cycle(6), 2)
    cold.catalog.close()

    warm = DecompositionEngine(catalog=path)
    decomposer = LogKDecomposer(engine=warm)
    decomposer.decompose(generators.cycle(6), 2)  # L1 miss, L2 hit, promote
    decomposer.decompose(generators.cycle(6), 2)  # pure L1 hit
    assert warm.catalog.stats().hits == 1  # the catalog was probed only once
    assert warm.cache.statistics.hits == 1
    warm.catalog.close()


@pytest.mark.parametrize("k, expect", [(2, True), (1, False)], ids=["positive", "negative"])
def test_l1_holds_the_input_before_the_catalog_write(tmp_path, monkeypatch, k, expect):
    # Write-behind ordering: within a process the durable tier is never
    # ahead of L1.  The input reduces (a subsumed edge), so the L1 key and
    # the catalog row's key differ.
    engine = DecompositionEngine(catalog=str(tmp_path / "cat.db"))
    decomposer = LogKDecomposer(engine=engine)
    hypergraph = Hypergraph({**generators.cycle(8).edges_as_dict(), "S": ["x1"]})
    key = (hypergraph.canonical_hash(), k, decomposer.cache_key())
    put, seen = engine.catalog.put, []

    def spy(*args, **kwargs):
        seen.append(engine.cache.get(key))
        return put(*args, **kwargs)

    monkeypatch.setattr(engine.catalog, "put", spy)
    assert decomposer.decompose(hypergraph, k).success is expect
    assert len(seen) == 1 and seen[0] is not None and seen[0].success is expect
    engine.catalog.close()


def test_timeouts_never_reach_the_catalog(tmp_path):
    path = str(tmp_path / "cat.db")
    engine = DecompositionEngine(catalog=path)
    decomposer = LogKDecomposer(engine=engine, timeout=0.0)
    result = decomposer.decompose(generators.clique(7), 2)
    assert result.timed_out
    engine.catalog.flush()
    assert len(engine.catalog) == 0
    engine.catalog.close()


# --------------------------------------------------------------------------- #
# namespaces
# --------------------------------------------------------------------------- #
def test_namespace_isolation(tmp_path):
    path = tmp_path / "cat.db"
    h = generators.cycle(6)
    from repro import hypertree_width

    width, hd = hypertree_width(h)
    with DecompositionCatalog(path, namespace="tenant-a", synchronous_writes=True) as a:
        a.put(h, width, ("cfg",), algorithm="test", success=True, decomposition=hd)
        assert a.get(h, width, ("cfg",)) is not None
        with DecompositionCatalog(path, namespace="tenant-b") as b:
            assert b.get(h, width, ("cfg",)) is None  # invisible across namespaces
            assert len(b) == 0
            assert b.namespaces() == ["tenant-a"]
            assert [r.namespace for r in b.entries("tenant-a")] == ["tenant-a"]
        # Eviction is namespace-scoped too.
        assert a.evict("tenant-b") == 0
        assert a.evict() == 1
        assert len(a) == 0


def test_invalid_namespace_rejected(tmp_path):
    from repro.exceptions import ReproError

    with pytest.raises(ReproError):
        DecompositionCatalog(tmp_path / "cat.db", namespace="")
    with pytest.raises(ReproError):
        DecompositionCatalog(tmp_path / "cat.db", namespace="has space")


# --------------------------------------------------------------------------- #
# corruption and tampering
# --------------------------------------------------------------------------- #
def test_corrupt_file_falls_back_to_memory_with_warning(tmp_path, caplog):
    path = tmp_path / "garbage.db"
    path.write_bytes(b"this is definitely not a sqlite database" * 64)
    with caplog.at_level(logging.WARNING, logger="repro.catalog"):
        engine = DecompositionEngine(catalog=str(path))
    assert any("memory-only" in message for message in caplog.messages)
    assert engine.catalog.stats().memory_fallback

    # Serving keeps working, merely without durability.
    result = LogKDecomposer(engine=engine).decompose(generators.cycle(6), 2)
    assert result.success
    engine.catalog.flush()
    assert len(engine.catalog) == 1  # stored in the in-memory fallback
    engine.catalog.close()
    assert path.read_bytes().startswith(b"this is definitely not")  # untouched


def test_tampered_row_is_validate_rejected_and_recomputed(tmp_path):
    path = str(tmp_path / "cat.db")
    cold = DecompositionEngine(catalog=path)
    LogKDecomposer(engine=cold).decompose(generators.cycle(6), 2)
    cold.catalog.flush()
    cold.catalog.close()

    # Tamper: a well-formed payload that is not a valid HD of the instance.
    bogus = json.dumps(
        {
            "format": "repro-decomposition/1",
            "kind": "hd",
            "root": {"bag": [], "cover": [], "children": []},
        }
    )
    connection = sqlite3.connect(path)
    connection.execute("UPDATE entries SET certificate = ?", (bogus,))
    connection.commit()
    connection.close()

    warm = DecompositionEngine(catalog=path)
    result = LogKDecomposer(engine=warm).decompose(generators.cycle(6), 2)
    assert result.success
    validate_hd(result.decomposition)  # the answer is correct regardless
    stats = warm.catalog.stats()
    assert stats.validate_rejects == 1  # the row was rejected, not trusted
    assert "decompose" in result.statistics.stage_seconds  # the search re-ran
    warm.catalog.flush()
    assert warm.catalog.stats().stores == 1  # and the row was re-stored

    # The healed row is served (and validates) on the next probe.
    fresh = DecompositionEngine(catalog=path)
    again = LogKDecomposer(engine=fresh).decompose(generators.cycle(6), 2)
    assert again.success and "decompose" not in again.statistics.stage_seconds
    assert fresh.catalog.stats().validate_rejects == 0
    fresh.catalog.close()
    warm.catalog.close()


def test_garbage_certificate_text_is_rejected(tmp_path):
    path = str(tmp_path / "cat.db")
    cold = DecompositionEngine(catalog=path)
    LogKDecomposer(engine=cold).decompose(generators.cycle(6), 2)
    cold.catalog.flush()
    cold.catalog.close()

    connection = sqlite3.connect(path)
    connection.execute("UPDATE entries SET certificate = 'torn write %$#'")
    connection.commit()
    connection.close()

    warm = DecompositionEngine(catalog=path)
    result = LogKDecomposer(engine=warm).decompose(generators.cycle(6), 2)
    assert result.success
    assert warm.catalog.stats().validate_rejects == 1
    warm.catalog.close()


@pytest.mark.parametrize("depth", [450, 2000])
def test_deeply_nested_certificate_is_a_miss_not_a_crash(tmp_path, depth):
    path = str(tmp_path / "cat.db")
    cold = DecompositionEngine(catalog=path)
    LogKDecomposer(engine=cold).decompose(generators.cycle(6), 2)
    cold.catalog.close()

    node = '{"bag": [], "cover": [], "children": [%s]}'
    text = node % ""
    for _ in range(depth - 1):
        text = node % text
    connection = sqlite3.connect(path)
    connection.execute(
        "UPDATE entries SET certificate = ?",
        ('{"format": "repro-decomposition/1", "kind": "hd", "root": %s}' % text,),
    )
    connection.commit()
    connection.close()

    warm = DecompositionEngine(catalog=path)
    result = LogKDecomposer(engine=warm).decompose(generators.cycle(6), 2)
    assert result.success
    validate_hd(result.decomposition)
    warm.catalog.flush()
    stats = warm.catalog.stats()
    assert (stats.validate_rejects, stats.hits, stats.stores) == (1, 0, 1)
    warm.catalog.close()


@pytest.mark.parametrize(
    "tampered", ['{"labels_tried": "many"}', "[3]"], ids=["string-counter", "not-a-dict"]
)
def test_statistics_of_the_wrong_type_are_rejected_not_a_late_type_error(tmp_path, tampered):
    path = str(tmp_path / "cat.db")
    cold = DecompositionEngine(catalog=path)
    LogKDecomposer(engine=cold).decompose(generators.cycle(6), 2)
    cold.catalog.close()

    connection = sqlite3.connect(path)
    connection.execute("UPDATE entries SET statistics = ?", (tampered,))
    connection.commit()

    warm = DecompositionEngine(catalog=path)
    result = LogKDecomposer(engine=warm).decompose(generators.cycle(6), 2)
    assert result.success and result.statistics.labels_tried > 0
    warm.catalog.flush()
    stats = warm.catalog.stats()
    assert (stats.validate_rejects, stats.hits, stats.stores) == (1, 0, 1)
    warm.catalog.close()
    (rewritten,) = connection.execute("SELECT statistics FROM entries").fetchone()
    connection.close()
    assert json.loads(rewritten)["labels_tried"] == result.statistics.labels_tried


# --------------------------------------------------------------------------- #
# cross-process sharing
# --------------------------------------------------------------------------- #
def _process_workload(path, barrier):
    # Runs in a child process: both children decompose the same instances
    # against one shared catalog file, racing their write-behind inserts.
    from repro import DecompositionEngine, LogKDecomposer
    from repro.hypergraph import generators as gen

    barrier.wait(timeout=30)
    engine = DecompositionEngine(catalog=path)
    decomposer = LogKDecomposer(engine=engine)
    decomposer.decompose(gen.cycle(6), 2)
    decomposer.decompose(gen.cycle(8), 1)
    engine.catalog.close()


def test_two_processes_share_one_catalog_exactly_once(tmp_path):
    path = str(tmp_path / "shared.db")
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(2)
    processes = [
        context.Process(target=_process_workload, args=(path, barrier))
        for _ in range(2)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0

    # INSERT OR IGNORE on the primary key: exactly one row per decided key,
    # no matter how the two processes interleaved.
    with DecompositionCatalog(path) as catalog:
        records = catalog.entries()
        assert len(records) == 2
        keys = {(r.canonical_hash, r.k) for r in records}
        assert len(keys) == 2
        for record in records:
            if record.success:
                validate_hd(record.kind(record.hypergraph, record.root))


# --------------------------------------------------------------------------- #
# maintenance API and CLI
# --------------------------------------------------------------------------- #
def test_evict_filters_and_vacuum(tmp_path):
    path = str(tmp_path / "cat.db")
    engine = DecompositionEngine(catalog=path)
    _run_workload(engine)
    engine.catalog.flush()
    catalog = engine.catalog
    assert len(catalog) == len(WORKLOAD)
    assert catalog.evict(k=1) == 1  # the negative entry
    remaining = catalog.entries()
    assert len(remaining) == len(WORKLOAD) - 1
    prefix = remaining[0].canonical_hash[:8]
    assert catalog.evict(hash_prefix=prefix) >= 1
    catalog.vacuum()
    engine.catalog.close()


def test_catalog_cli(tmp_path, capsys):
    from repro.catalog.__main__ import main

    path = str(tmp_path / "cat.db")
    engine = DecompositionEngine(catalog=path)
    LogKDecomposer(engine=engine).decompose(generators.cycle(6), 2)
    engine.catalog.flush()
    target = engine.catalog.entries()[0].canonical_hash
    engine.catalog.close()

    assert main(["list", path]) == 0
    out = capsys.readouterr().out
    assert target[:12] in out and "1 entry" in out

    assert main(["show", path, target[:10]]) == 0
    out = capsys.readouterr().out
    assert "log-k-decomp" in out and '"edge"' in out and "λ=" in out

    assert main(["show", path, "ffff-no-such-hash"]) == 1
    capsys.readouterr()

    assert main(["evict", path, "--hash", target[:10]]) == 0
    assert "evicted 1" in capsys.readouterr().out
    assert main(["vacuum", path]) == 0
    capsys.readouterr()
    assert main(["list", path]) == 0
    assert "0 entries" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [["list"], ["show", "abc"], ["evict", "--k", "1"], ["vacuum"]], ids=lambda a: a[0]
)
def test_catalog_cli_missing_file_exits_1_and_creates_nothing(tmp_path, capsys, argv):
    from repro.catalog.__main__ import main

    path = tmp_path / "no-such.db"
    command, *rest = argv
    assert main([command, str(path), *rest]) == 1
    assert str(path) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_serialized_configuration_key_is_stable():
    # cache_key() tuples may contain frozensets whose iteration order is
    # nondeterministic; the catalog's rendering must not depend on it.
    from repro.catalog import configuration_text

    a = configuration_text(("algo", frozenset({"x", "y", "z"}), ("k", 2)))
    b = configuration_text(("algo", frozenset({"z", "y", "x"}), ("k", 2)))
    assert a == b
    assert configuration_text(("algo", frozenset({"x"}))) != configuration_text(
        ("algo", frozenset({"y"}))
    )


# --------------------------------------------------------------------------- #
# resilience: retry, circuit breaker, re-attach, writer supervision
# --------------------------------------------------------------------------- #
def test_transient_error_is_retried_invisibly(tmp_path):
    from repro import faults
    from repro import hypertree_width

    h = generators.cycle(6)
    width, hd = hypertree_width(h)
    with DecompositionCatalog(tmp_path / "cat.db", synchronous_writes=True) as catalog:
        catalog.put(h, width, ("cfg",), algorithm="test", success=True, decomposition=hd)
        rule = faults.FaultRule(
            point="catalog.get", error=sqlite3.OperationalError("disk I/O error"), times=1
        )
        with faults.injected(rule):
            record = catalog.get(h, width, ("cfg",))
        assert record is not None and record.success  # the caller never noticed
        stats = catalog.stats()
        assert stats.retries == 1
        assert stats.circuit_state == "closed"
        assert not stats.memory_fallback


def test_mid_run_corruption_opens_circuit_then_reattaches(tmp_path, caplog):
    from repro import faults

    path = str(tmp_path / "cat.db")
    catalog = DecompositionCatalog(path, reset_interval=3600.0)
    engine = DecompositionEngine(catalog=catalog)
    decomposer = LogKDecomposer(engine=engine)

    # Warm start: one decided instance in L1 and (after flush) in the file.
    assert decomposer.decompose(generators.cycle(6), 2).success
    catalog.flush()

    # Mid-run corruption: reads and writes against the file now fail
    # persistently.  (Not ``catalog.*``: that would also hit the
    # ``catalog.writer`` fault point and drop the write before it reaches
    # the shadow database this test asserts the replay of.)
    rules = [
        faults.FaultRule(
            point=point,
            error=sqlite3.OperationalError("database disk image is malformed"),
            times=50,
        )
        for point in ("catalog.get", "catalog.put", "catalog.query")
    ]
    with caplog.at_level(logging.WARNING, logger="repro.catalog"):
        with faults.injected(*rules):
            # An L1 hit never touches the broken catalog.
            warm = decomposer.decompose(generators.cycle(6), 2)
            assert warm.success
            assert "decompose" not in warm.statistics.stage_seconds
            # An L1 miss drives the retry ladder until the circuit opens,
            # then computes and stores into the in-memory shadow.
            fresh = decomposer.decompose(generators.cycle(8), 2)
            assert fresh.success
            validate_hd(fresh.decomposition)
            catalog.flush()
            mid = catalog.stats()
            assert mid.circuit_state == "open"
            assert mid.memory_fallback
            assert mid.circuit_opens >= 1
            assert mid.retries >= 1
            # L1 keeps answering correctly the whole time the circuit is open.
            again = decomposer.decompose(generators.cycle(8), 2)
            assert again.success
            assert "decompose" not in again.statistics.stage_seconds
    assert any("memory-only" in message for message in caplog.messages)

    # Faults gone: a forced probe re-attaches and replays the shadow rows.
    assert catalog.probe()
    healed = catalog.stats()
    assert healed.circuit_state == "closed"
    assert not healed.memory_fallback
    assert healed.circuit_reattaches >= 1
    assert healed.reattach_replays >= 1  # the cycle8 row written while degraded
    catalog.close()

    # The replayed row is durable: a fresh handle serves it from the file.
    fresh_engine = DecompositionEngine(catalog=path)
    served = LogKDecomposer(engine=fresh_engine).decompose(generators.cycle(8), 2)
    assert served.success
    assert "decompose" not in served.statistics.stage_seconds
    fresh_engine.catalog.close()


class _WriterKill(BaseException):
    """Escapes the writer loop's ``except Exception`` — kills the thread."""


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_dead_writer_flush_raises_and_next_put_respawns(tmp_path):
    from repro import faults, hypertree_width
    from repro.exceptions import CatalogError

    h6, h8, g23 = generators.cycle(6), generators.cycle(8), generators.grid(2, 3)
    width, hd6 = hypertree_width(h6)
    _, hd8 = hypertree_width(h8)
    _, hdg = hypertree_width(g23)
    with DecompositionCatalog(tmp_path / "cat.db") as catalog:
        # The first write sleeps long enough for the others to queue behind
        # it, then raises a BaseException that escapes the writer loop.
        rule = faults.FaultRule(
            point="catalog.writer", delay=0.3, error=_WriterKill("killed"), times=1
        )
        with faults.injected(rule):
            catalog.put(h6, width, ("a",), algorithm="t", success=True, decomposition=hd6)
            catalog.put(h8, width, ("b",), algorithm="t", success=True, decomposition=hd8)
            catalog.put(g23, width, ("c",), algorithm="t", success=True, decomposition=hdg)
            with pytest.raises(CatalogError, match="write-behind writer died"):
                catalog.flush()
        stats = catalog.stats()
        assert stats.lost_writes >= 1  # the stranded queue was accounted
        assert stats.circuit_state == "open"  # an unexplained death trips it

        # The next put respawns the writer; the catalog heals.
        assert catalog.probe()
        catalog.put(h6, width, ("d",), algorithm="t", success=True, decomposition=hd6)
        assert catalog.flush()
        stats = catalog.stats()
        assert stats.writer_respawns == 1
        assert stats.stores >= 1
        assert catalog.get(h6, width, ("d",)) is not None


def test_ordinary_writer_exception_loses_one_write_not_the_thread(tmp_path):
    from repro import faults, hypertree_width

    h6, h8 = generators.cycle(6), generators.cycle(8)
    width, hd6 = hypertree_width(h6)
    _, hd8 = hypertree_width(h8)
    with DecompositionCatalog(tmp_path / "cat.db") as catalog:
        rule = faults.FaultRule(
            point="catalog.writer", error=RuntimeError("serialization bug"), times=1
        )
        with faults.injected(rule):
            catalog.put(h6, width, ("a",), algorithm="t", success=True, decomposition=hd6)
            catalog.put(h8, width, ("b",), algorithm="t", success=True, decomposition=hd8)
            assert catalog.flush()  # the writer survived and drained
        stats = catalog.stats()
        assert stats.lost_writes == 1
        assert stats.writer_respawns == 0
        assert stats.stores == 1  # the second write landed
