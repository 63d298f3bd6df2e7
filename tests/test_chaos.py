"""Seeded chaos suite: the serving stack under the bounded fault storm.

These tests drive :func:`repro.serve.run_selftest` in chaos mode, which
installs the seeded schedule from :func:`repro.serve.chaos_rules` and asserts
the recovery invariants from the inside (byte-identical answers, exactly-once
memoization, catalog circuit re-attach, worker and process respawns, no
hangs).  Here we additionally pin the externally visible contract: the run
reports OK, the health counters prove the faults were actually exercised,
and the CLI surfaces chaos mode with a proper exit code.
"""

import pytest

from repro import serve
from repro.faults import FaultRule


CHAOS_SEEDS = (0, 1, 2)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_selftest_recovers_under_seeded_fault_storm(seed, tmp_path):
    ok, report, snapshot = serve.run_selftest(
        clients=3,
        repeats=2,
        catalog=str(tmp_path / "chaos-catalog.db"),
        chaos_seed=seed,
    )
    assert ok, report
    assert snapshot["failures"] == []

    health = snapshot["health"]
    assert health["worker_crashes"] >= 1
    assert health["worker_respawns"] >= 1
    assert health["tasks_requeued"] >= 1
    assert health["quarantined"] == 0
    assert health["process_worker_respawns"] >= 1

    circuit = health["catalog_circuit"]
    assert circuit["state"] == "closed"
    assert circuit["opens"] >= 1
    assert circuit["reattaches"] >= 1

    chaos = snapshot["chaos"]
    assert chaos["seed"] == seed
    # The parallel.worker kill fires inside child processes, invisible to
    # the parent's injector counters; process_worker_respawns (above) is
    # its witness.  The parent-side counts cover the thread-side storm.
    assert sum(chaos["injected"].values()) >= 4
    assert chaos["injected"].keys() & {"catalog.get", "catalog.put"}
    assert "service.worker" in chaos["injected"]


def test_chaos_schedule_is_seed_deterministic_and_bounded():
    first, second = serve.chaos_rules(3), serve.chaos_rules(3)
    assert [
        (r.point, type(r.error), r.times, r.skip, r.delay, r.kill) for r in first
    ] == [(r.point, type(r.error), r.times, r.skip, r.delay, r.kill) for r in second]
    assert serve.chaos_rules(3)[0].times != serve.chaos_rules(4)[0].times or (
        serve.chaos_rules(3)[1].times != serve.chaos_rules(4)[1].times
    )
    for rule in first:
        assert isinstance(rule, FaultRule)
        # Every raising/delaying rule must be bounded so the storm ends and
        # the recovery phase runs against a quiet system.
        if rule.kill:
            assert rule.where  # kills are targeted, never unconditional
        else:
            assert rule.times is not None


def test_chaos_cli_reports_ok_and_exits_zero(tmp_path, capsys):
    rc = serve.main(
        [
            "--selftest",
            "--chaos",
            "--chaos-seed",
            "1",
            "--clients",
            "2",
            "--repeats",
            "2",
            "--catalog",
            str(tmp_path / "cli-catalog.db"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "chaos seed 1" in out
    assert "result: OK" in out


def test_selftest_without_chaos_reports_no_chaos_section(tmp_path):
    ok, report, snapshot = serve.run_selftest(
        clients=2, repeats=1, catalog=str(tmp_path / "plain.db")
    )
    assert ok, report
    assert "chaos" not in snapshot
    assert "chaos seed" not in report
