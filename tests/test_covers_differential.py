"""Differential tests for the branch-and-bound label enumerator.

The optimised :meth:`CoverEnumerator.labels` must emit the *byte-identical*
label sequence as the reference implementation it replaced
(``tests/oracles/labels.py``) for every combination of
``(allowed, require_from, overlap_with, cover, k)`` — the pruning
may only skip branches that contain no emitted label.  A randomized corpus of
settings over random hypergraphs checks exactly that, plus the direct
partition-restricted generation and the width-safety invariant of subedge
domination.
"""

from __future__ import annotations

import random

import pytest

from repro.core.base import SearchStatistics
from repro.core.parallel import partition_edges
from repro.decomp.covers import CoverEnumerator, label_union
from repro.hypergraph import Hypergraph, generators
from repro.hypergraph.bitset import from_indices, indices_of

from oracles.domination import dominated_pool_pairwise
from oracles.labels import labels_reference


def _random_host(rng: random.Random, trial: int) -> Hypergraph:
    kind = trial % 3
    if kind == 0:
        return generators.random_csp(
            rng.randint(4, 9), rng.randint(3, 9), arity=rng.choice([2, 3]), seed=trial
        )
    if kind == 1:
        return generators.cycle(rng.randint(3, 10))
    return generators.with_chords(
        generators.cycle(rng.randint(5, 10)), rng.randint(1, 3), seed=trial
    )


def _random_pool(rng: random.Random, m: int, at_least: int) -> int:
    """An edge-index bitmask of ``at_least``..m of the m edges."""
    return from_indices(rng.sample(range(m), rng.randint(at_least, m)))


def _random_settings(rng: random.Random, host: Hypergraph, k: int) -> tuple[dict, int]:
    """The keyword settings of one draw, and the width (at most ``k``) to enumerate at."""
    m = host.num_edges
    allowed = None if rng.random() < 0.4 else _random_pool(rng, m, 1)
    # An empty draw is the mask 0: "no progress constraint", like None.
    require = None if rng.random() < 0.5 else _random_pool(rng, m, 0)
    overlap = None
    if rng.random() < 0.5:
        overlap = 0
        for edge in rng.sample(range(m), rng.randint(1, max(1, m // 2))):
            overlap |= host.edge_bits(edge)
    cover = None
    if rng.random() < 0.5:
        cover = 0
        for edge in rng.sample(range(m), rng.randint(1, 2)):
            cover |= host.edge_bits(edge)
    # A narrower label cap is an enumerator of smaller width.
    width = k if rng.random() < 0.7 else rng.randint(1, k)
    settings = {
        "allowed": allowed,
        "require_from": require,
        "overlap_with": overlap,
        "cover": cover,
    }
    return settings, width


def test_label_sequence_matches_reference_across_random_corpus():
    rng = random.Random(20260726)
    for trial in range(150):
        host = _random_host(rng, trial)
        k = rng.randint(1, 4)
        settings, width = _random_settings(rng, host, k)
        enumerator = CoverEnumerator(host, width)
        new = list(enumerator.labels(**settings))
        old = list(labels_reference(enumerator, **settings))
        assert new == old, (trial, host, width, settings)


def test_partition_generation_matches_reference_filter():
    rng = random.Random(42)
    for trial in range(60):
        host = _random_host(rng, trial)
        k = rng.randint(1, 3)
        enumerator = CoverEnumerator(host, k)
        m = host.num_edges
        allowed = None if rng.random() < 0.5 else _random_pool(rng, m, 1)
        require = None if rng.random() < 0.5 else _random_pool(rng, m, 1)
        # The coordinator's rule: it deals out every edge index, whatever
        # pool the depth-1 loop is then restricted to.
        parts = partition_edges(m, rng.randint(1, 4))
        reference = [
            label
            for label in labels_reference(enumerator, allowed=allowed, require_from=require)
        ]
        streams = [
            list(enumerator.labels_for_partition(allowed, part, require_from=require))
            for part in parts
        ]
        # Each stream must be a subsequence of the reference order and the
        # streams together must partition the full label space.
        for part, stream in zip(parts, streams):
            firsts = set(part)
            assert stream == [label for label in reference if label[0] in firsts]
        merged = sorted(label for stream in streams for label in stream)
        assert merged == sorted(reference)


def _covers(rng: random.Random, host: Hypergraph, pool: list[int], require: int | None):
    """Cover requirements around the gap-closing last position."""
    yield None
    yield 0  # a requirement that is already met: no gap is ever open
    yield label_union(host, rng.sample(pool, min(len(pool), rng.randint(1, 2))))
    yield label_union(host, rng.sample(range(host.num_edges), rng.randint(1, 3)))
    # No pool edge — no label — can close it: a vertex the host does not have.
    yield host.edge_bits(pool[0]) | 1 << host.num_vertices
    old = [e for e in pool if not (require or 0) >> e & 1]
    if require and old:
        # Closed by one non-progress edge: alone, or behind non-progress
        # edges only, it must not be emitted.
        yield host.edge_bits(rng.choice(old))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cover_progress_domination_partition_grid_matches_reference(k):
    # cover × require_from × component_vertices (both domination modes) ×
    # labels_for_partition: the exact sequence of the combinations filter
    # over the pool the pairwise domination oracle leaves.
    rng = random.Random(2100 + k)
    for trial in range(36):
        host = _random_host(rng, trial)
        m = host.num_edges
        enumerator = CoverEnumerator(host, k)
        allowed = None if rng.random() < 0.4 else _random_pool(rng, m, 1)
        pool = indices_of(host.all_edges_mask if allowed is None else allowed)
        require = rng.choice([None, 0, _random_pool(rng, m, 1), from_indices(pool[::2])])
        comp_vertices = label_union(host, rng.sample(range(m), rng.randint(1, m)))
        parts = partition_edges(m, rng.randint(1, 3))
        for cover in _covers(rng, host, pool, require):
            for domination in (None, True, False):
                survivors = pool
                if domination is not None:
                    survivors, _ = dominated_pool_pairwise(
                        host, pool, require or None, comp_vertices, domination
                    )
                reference = list(
                    labels_reference(
                        enumerator,
                        allowed=from_indices(survivors),
                        require_from=require,
                        cover=cover,
                    )
                )
                vertices = None if domination is None else comp_vertices
                case = (trial, host, allowed, require, cover, domination)
                assert reference == list(
                    enumerator.labels(
                        allowed=allowed,
                        require_from=require,
                        cover=cover,
                        component_vertices=vertices,
                        strict_domination=domination is not False,
                    )
                ), case
                if domination is False:
                    continue  # the partitioned enumeration dominates strictly
                for part in parts:
                    assert [label for label in reference if label[0] in part] == list(
                        enumerator.labels_for_partition(
                            allowed,
                            part,
                            require_from=require,
                            cover=cover,
                            component_vertices=vertices,
                        )
                    ), (case, part)


def test_gap_closing_edge_must_be_a_progress_edge_when_none_is_chosen():
    # cover = {c, d} is closed by "old" alone — a non-progress edge.  Behind
    # "far" (non-progress too) it would finish a label of old edges only.
    host = Hypergraph(
        {"far": ["a", "b"], "old": ["c", "d"], "new1": ["d", "e"], "new2": ["c", "d", "f"]}
    )
    settings = dict(require_from=0b1100, cover=host.vertices_to_mask(["c", "d"]))
    enumerator = CoverEnumerator(host, 2)
    labels = list(enumerator.labels(**settings))
    assert labels == [(3,), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert labels == list(labels_reference(enumerator, **settings))


def test_domination_only_removes_replaceable_labels():
    # Width-safety invariant: for every label the full enumeration emits but
    # the dominated enumeration skips, there must be an emitted label of at
    # most the same size whose component-restricted union is a superset and
    # which still satisfies the progress rule.
    rng = random.Random(7)
    for trial in range(40):
        host = _random_host(rng, trial)
        k = rng.randint(1, 3)
        enumerator = CoverEnumerator(host, k)
        m = host.num_edges
        comp_edges = rng.sample(range(m), rng.randint(2, m))
        comp_vertices = label_union(host, comp_edges)
        require = from_indices(comp_edges) if rng.random() < 0.7 else None
        full = list(enumerator.labels(require_from=require))
        dominated = list(
            enumerator.labels(require_from=require, component_vertices=comp_vertices)
        )
        kept = set(dominated)
        assert kept <= set(full)
        by_size: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for label in dominated:
            by_size.setdefault(len(label), []).append(
                (label, label_union(host, label) & comp_vertices)
            )
        for label in full:
            if label in kept:
                continue
            restricted = label_union(host, label) & comp_vertices
            replacement = any(
                restricted & ~candidate_union == 0
                for size in range(1, len(label) + 1)
                for _, candidate_union in by_size.get(size, [])
            )
            assert replacement, (trial, label)


def test_domination_skips_are_counted():
    # Two copies of the same edge: one must be dominated away.
    host = Hypergraph({"a": ["x", "y"], "b": ["x", "y"], "c": ["y", "z"]})
    enumerator = CoverEnumerator(host, 2)
    stats = SearchStatistics()
    enumerator.stats = stats
    labels = list(enumerator.labels(component_vertices=host.all_vertices_mask))
    assert stats.enum_domination_skips >= 1
    flattened = {edge for label in labels for edge in label}
    assert 0 in flattened and 1 not in flattened  # smallest index survives


def test_domination_never_drops_the_progress_witness():
    # Edge 1 dominates edge 0 within the component, but only edge 0 is a
    # "new" edge: the progress rule forbids dropping it.
    host = Hypergraph({"small": ["x", "y"], "big": ["x", "y", "z"]})
    enumerator = CoverEnumerator(host, 1)
    labels = list(
        enumerator.labels(
            require_from=0b1,
            component_vertices=host.all_vertices_mask,
        )
    )
    assert (0,) in labels


class _CountingHost:
    """Hypergraph proxy counting ``edge_bits`` calls and fetches of the
    ``edge_masks`` table (hot-path regression guard)."""

    def __init__(self, host: Hypergraph) -> None:
        self._host = host
        self.edge_bits_calls = 0

    def __getattr__(self, name):
        return getattr(self._host, name)

    def edge_bits(self, index: int) -> int:
        self.edge_bits_calls += 1
        return self._host.edge_bits(index)

    @property
    def edge_masks(self) -> tuple[int, ...]:
        self.edge_bits_calls += 1
        return self._host.edge_masks


def test_no_constraint_path_does_no_per_label_recomputation():
    # The no-constraint enumeration must touch edge bitmasks only while
    # preparing the pool — O(pool) calls — never per emitted label; with
    # ~500 labels over 12 edges any per-label recomputation would show.
    host = generators.cycle(12)
    counting = _CountingHost(host)
    enumerator = CoverEnumerator(counting, 3)
    labels = list(enumerator.labels())
    assert len(labels) == 12 + 66 + 220
    assert counting.edge_bits_calls <= host.num_edges
