"""The parallel workers' shared table of refuted subproblems."""

from __future__ import annotations

import multiprocessing as mp
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HybridDecomposer, ParallelLogKDecomposer
from repro.core.parallel import _worker_search, partition_edges
from repro.core.refuted import RefutedTable
from repro.decomp import validate_hd
from repro.hypergraph import generators


@pytest.fixture
def table():
    table = RefutedTable()
    yield table
    table.close()


# --------------------------------------------------------------------------- #
# the table on its own
# --------------------------------------------------------------------------- #
def test_add_and_contains(table):
    key = (0b1011, (0b110,), 0b10, 0b1111)
    assert key not in table
    table.add(key)
    assert key in table
    assert (0b1011, (0b110,), 0b10, None) not in table  # det-k's "every edge"
    assert (0b1011, (), 0b10, 0b1111) not in table


def test_keys_that_hash_alike_are_different_entries(table):
    # CPython hashes ints modulo 2**61 - 1: component {e61} and component
    # {e0} have one hash() — on exactly the > 61-edge hosts the ledger runs.
    high, low = (1 << 61, (), 0, 0), (1, (), 0, 0)
    assert hash(high) == hash(low)
    table.add(high)
    assert high in table and low not in table


def test_slots_must_be_a_power_of_two():
    for slots in (0, 3, 12):
        with pytest.raises(ValueError):
            RefutedTable(slots)


def test_an_evicted_key_reads_as_absent():
    table = RefutedTable(slots=1)
    first, second = (1, (), 0, 1), (2, (), 0, 3)
    table.add(first)
    table.add(second)  # one slot: a collision overwrites
    assert second in table and first not in table
    table.close()


def test_a_torn_slot_reads_as_absent():
    # One key's tag beside another's check — what a reader can see while two
    # writers race for a slot — matches neither.
    table = RefutedTable(slots=1)
    first, second = (1, (), 0, 1), (2, (), 0, 3)
    _, tag, _ = table._slot(first)
    _, _, check = table._slot(second)
    table._words[0], table._words[1] = tag, check
    assert first not in table and second not in table
    table.close()


_KEYS = st.tuples(
    st.integers(0, 1 << 130),
    st.lists(st.integers(1, 1 << 70), max_size=3).map(lambda sp: tuple(sorted(sp))),
    st.integers(0, 1 << 70),
    st.none() | st.integers(0, 1 << 130),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_KEYS, max_size=12), st.lists(_KEYS, max_size=12))
def test_no_false_hit_under_eviction(added, probed):
    table = RefutedTable(slots=4)
    for key in added:
        table.add(key)
    assert added == [] or added[-1] in table
    for key in probed:
        assert key not in table or key in added
    table.close()


def _add_then_wait_for(table, mine, theirs):
    table.add(mine)
    deadline = time.monotonic() + 10.0
    while theirs not in table:
        if time.monotonic() > deadline:
            raise SystemExit(1)
        time.sleep(0.005)


def test_forked_children_see_each_others_entries(table):
    context = mp.get_context("fork")
    first, second = (1 << 90, (5,), 3, None), (7, (), 0, 1 << 64)
    children = [
        context.Process(target=_add_then_wait_for, args=(table, first, second)),
        context.Process(target=_add_then_wait_for, args=(table, second, first)),
    ]
    for child in children:
        child.start()
    for child in children:
        child.join(20.0)
        assert child.exitcode == 0
    assert first in table and second in table  # and so does their parent


def _hammer(table, slot, seconds):
    mine = [(slot << 80 | n, (n,), slot, None) for n in range(64)]
    never = [(slot << 80 | n, (n,), slot, 0) for n in range(64)]  # nobody adds these
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        for key, absent in zip(mine, never):
            table.add(key)
            if absent in table:
                raise SystemExit(1)


def test_racing_writers_never_produce_a_false_hit():
    # More writers than cores on four slots: every slot is overwritten and
    # torn all the time, and still nobody reads a key that was never added.
    table = RefutedTable(slots=4)
    context = mp.get_context("fork")
    children = [context.Process(target=_hammer, args=(table, slot, 0.5)) for slot in range(4)]
    for child in children:
        child.start()
    for child in children:
        child.join(20.0)
        assert child.exitcode == 0
    table.close()


# --------------------------------------------------------------------------- #
# the table under the search
# --------------------------------------------------------------------------- #
_HARD = generators.with_chords(generators.cycle(30), 4, seed=2)  # hw 3


def test_a_second_run_on_the_same_table_resumes(table):
    """What a respawned worker inherits: its dead predecessor's refutations."""
    base = HybridDecomposer()
    partition = partition_edges(_HARD.num_edges, 2)[0]
    first = _worker_search(base.search, _HARD, 2, partition, None, table)
    again = _worker_search(base.search, _HARD, 2, partition, None, table)
    assert first[:3] == again[:3] == (False, False, None)
    # The first run reads back only what its own det-k phase wrote, the
    # second the first's refutations too.  What is left to expand has a
    # fragment (no table holds those) or sits at depth 1.
    assert first[3].cache_misses > 40
    assert again[3].refutations_shared > first[3].refutations_shared
    assert again[3].cache_misses < first[3].cache_misses
    # Without a table nothing is read back.
    alone = _worker_search(base.search, _HARD, 2, partition, None)
    assert alone[3].refutations_shared == 0
    assert alone[3].cache_misses >= first[3].cache_misses


def test_no_table_outside_the_forked_arm(monkeypatch):
    made = []
    monkeypatch.setattr("repro.core.parallel.RefutedTable", lambda: made.append(1))
    monkeypatch.setattr(mp.current_process(), "daemon", True)
    daemonic = ParallelLogKDecomposer(num_workers=2).decompose_raw(_HARD, 2)
    sequential = HybridDecomposer().decompose_raw(_HARD, 2)
    assert not made
    assert daemonic.statistics.refutations_shared == sequential.statistics.refutations_shared == 0
    assert daemonic.statistics.cache_misses == sequential.statistics.cache_misses


def _corpus():
    yield _HARD, (2, 3)
    for seed in range(8):
        yield generators.random_csp(7, 6, arity=3, seed=seed), (1, 2, 3)
        yield generators.random_query(8, 8, seed=seed, acyclic_bias=0.4), (1, 2)
    for seed in range(6):
        yield generators.with_chords(generators.cycle(7), 2, seed=seed), (1, 2, 3)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(
    "options", [{}, {"metric": "EdgeCount", "threshold": 3}], ids=["default", "edgecount3"]
)
def test_a_four_slot_table_never_changes_an_answer(monkeypatch, workers, options):
    """Eviction on nearly every write: entries get lost, answers do not."""
    monkeypatch.setattr("repro.core.parallel.RefutedTable", lambda: RefutedTable(slots=4))
    sequential = HybridDecomposer(**options)
    parallel = ParallelLogKDecomposer(num_workers=workers, **options)
    for hypergraph, widths in _corpus():
        for k in widths:
            expected = sequential.decompose_raw(hypergraph, k)
            result = parallel.decompose_raw(hypergraph, k)
            assert not result.timed_out
            assert result.success == expected.success, (hypergraph.name, k)
            if result.success:
                validate_hd(result.decomposition)
                assert result.decomposition.width <= k
