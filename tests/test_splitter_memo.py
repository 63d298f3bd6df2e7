"""Property-based tests for the memoized, incidence-indexed ComponentSplitter."""

from __future__ import annotations

import importlib
import random

from hypothesis import given, settings, strategies as st

from repro.core.base import SearchStatistics
from repro.decomp.components import ComponentSplitter
from repro.decomp.extended import BitComp, full_bitcomp
from repro.hypergraph import Hypergraph, generators

_vertices = st.sampled_from([f"v{i}" for i in range(8)])
_hypergraphs = st.lists(
    st.frozensets(_vertices, min_size=1, max_size=4), min_size=1, max_size=7
).map(lambda edges: Hypergraph({f"e{i}": sorted(vs) for i, vs in enumerate(edges)}))
_separators = st.integers(min_value=0, max_value=(1 << 10) - 1)


@given(_hypergraphs, st.lists(_separators, min_size=1, max_size=8))
@settings(max_examples=80)
def test_memoized_split_equals_fresh_split(hypergraph, separators):
    memoized = ComponentSplitter(hypergraph, full_bitcomp(hypergraph))
    for separator in separators:
        fresh = ComponentSplitter(hypergraph, full_bitcomp(hypergraph), memoize=False)
        assert memoized.split_bits(separator) == fresh.split_bits(separator)
        # Repeat: served from the memo, still identical.
        assert memoized.split_bits(separator) == fresh.split_bits(separator)


@given(_hypergraphs, _separators)
@settings(max_examples=80)
def test_largest_size_equals_max_component_size(hypergraph, separator):
    splitter = ComponentSplitter(hypergraph, full_bitcomp(hypergraph))
    parts = splitter.split_bits(separator)
    assert splitter.largest_size(separator) == max((p.size for p in parts), default=0)
    # And in the other call order (largest_size first exercises the
    # early-exit flood fill rather than the derive-from-split-memo path).
    fresh = ComponentSplitter(hypergraph, full_bitcomp(hypergraph))
    assert fresh.largest_size(separator) == max((p.size for p in parts), default=0)


def test_effective_separator_shares_memo_entries():
    host = generators.cycle(8)
    comp = full_bitcomp(host)
    stats = SearchStatistics()
    splitter = ComponentSplitter(host, comp, stats=stats)
    separator = host.edge_bits(0) | host.edge_bits(4)
    first = splitter.split_bits(separator)
    # Bits outside V(comp) do not change the effective separator: memo hit.
    outside = 1 << (host.num_vertices + 5)
    second = splitter.split_bits(separator | outside)
    assert first == second
    assert stats.splitter_memo_hits == 1
    assert stats.splitter_memo_misses == 1


def test_memo_results_are_isolated_from_caller_mutation():
    host = generators.cycle(6)
    splitter = ComponentSplitter(host, full_bitcomp(host))
    separator = host.edge_bits(0) | host.edge_bits(3)
    first = splitter.split_bits(separator)
    first.clear()  # callers may consume the returned list
    assert splitter.split_bits(separator) != []


def test_memo_is_bounded(monkeypatch):
    # The attribute ``repro.decomp.components`` is the function, not the module.
    module = importlib.import_module("repro.decomp.components")
    monkeypatch.setattr(module, "DEFAULT_MEMO_SIZE", 4)
    host = generators.cycle(10)
    splitter = ComponentSplitter(host, full_bitcomp(host))
    for index in range(10):
        splitter.split_bits(host.edge_bits(index))
    assert len(splitter._split_memo) <= 4


def test_splitter_with_specials_and_random_separators():
    rng = random.Random(5)
    for trial in range(30):
        host = generators.random_csp(
            rng.randint(4, 9), rng.randint(3, 9), arity=rng.choice([2, 3]), seed=trial
        )
        specials = tuple(
            host.edge_bits(rng.randrange(host.num_edges))
            for _ in range(rng.randint(0, 2))
        )
        edges = rng.sample(range(host.num_edges), rng.randint(1, host.num_edges))
        comp = BitComp.of(edges, specials)
        splitter = ComponentSplitter(host, comp)
        for _ in range(6):
            separator = rng.getrandbits(host.num_vertices)
            fresh = ComponentSplitter(host, comp, memoize=False)
            assert splitter.split_bits(separator) == fresh.split_bits(separator)
            assert splitter.largest_size(separator) == max(
                (c.size for c in fresh.split_bits(separator)), default=0
            )
