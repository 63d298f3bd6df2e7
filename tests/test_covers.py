"""Unit tests for λ-label enumeration (CoverEnumerator)."""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.core.parallel import partition_edges
from repro.decomp.covers import CoverEnumerator, label_union
from repro.hypergraph import Hypergraph, generators


@pytest.fixture
def host() -> Hypergraph:
    return generators.cycle(5)


def test_rejects_bad_width(host):
    with pytest.raises(ValueError):
        CoverEnumerator(host, 0)


def test_enumerates_all_labels_up_to_k(host):
    enumerator = CoverEnumerator(host, 2)
    labels = list(enumerator.labels())
    expected = {(i,) for i in range(5)} | set(combinations(range(5), 2))
    assert set(labels) == expected
    assert len(labels) == len(expected)


def test_labels_are_sorted_and_deterministic(host):
    enumerator = CoverEnumerator(host, 2)
    labels = list(enumerator.labels())
    assert labels == list(CoverEnumerator(host, 2).labels())
    assert all(tuple(sorted(label)) == label for label in labels)
    # Size-1 labels come before size-2 labels.
    sizes = [len(label) for label in labels]
    assert sizes == sorted(sizes)


def test_allowed_restriction(host):
    enumerator = CoverEnumerator(host, 2)
    labels = list(enumerator.labels(allowed=0b01010))
    assert set(labels) == {(1,), (3,), (1, 3)}


def test_require_from_restriction(host):
    enumerator = CoverEnumerator(host, 2)
    labels = list(enumerator.labels(require_from=1 << 4))
    assert all(4 in label for label in labels) is False or labels  # non-empty
    assert all(any(e == 4 for e in label) for label in labels)


def test_require_from_disjoint_pool_yields_nothing(host):
    enumerator = CoverEnumerator(host, 2)
    assert list(enumerator.labels(allowed=0b00011, require_from=1 << 4)) == []


def test_zero_require_from_means_no_progress_constraint(host):
    enumerator = CoverEnumerator(host, 2)
    assert list(enumerator.labels(require_from=0)) == list(enumerator.labels())
    assert list(enumerator.labels(allowed=0)) == []  # an empty pool is not "all edges"


def test_overlap_with_restriction(host):
    enumerator = CoverEnumerator(host, 1)
    overlap = host.edge_bits(0)  # vertices x1, x2
    labels = list(enumerator.labels(overlap_with=overlap))
    # Only edges sharing x1 or x2 qualify: R1 itself, R2 (x2,x3), R5 (x5,x1).
    names = {host.edge_name(label[0]) for label in labels}
    assert names == {"R1", "R2", "R5"}


def test_cover_requirement(host):
    enumerator = CoverEnumerator(host, 2)
    conn = host.vertices_to_mask(["x1", "x3"])
    labels = list(enumerator.labels(cover=conn))
    assert labels
    for label in labels:
        assert conn & ~label_union(host, label) == 0


def test_cover_requirement_impossible():
    host = Hypergraph({"a": ["x", "y"], "b": ["y", "z"]})
    enumerator = CoverEnumerator(host, 1)
    # No single edge covers {x, z}.
    conn = host.vertices_to_mask(["x", "z"])
    assert list(enumerator.labels(cover=conn)) == []


def test_partition_covers_pool(host):
    enumerator = CoverEnumerator(host, 2)
    parts = partition_edges(host.num_edges, 3)
    assert sorted(e for part in parts for e in part) == list(range(5))
    assert partition_edges(3, 5) == [[0], [1], [2]]  # never an empty share
    # Union of per-partition label streams equals the unpartitioned stream.
    union: set[tuple[int, ...]] = set()
    for part in parts:
        union |= set(enumerator.labels_for_partition(None, part))
    assert union == set(enumerator.labels())


def test_partition_single_worker(host):
    enumerator = CoverEnumerator(host, 2)
    parts = partition_edges(host.num_edges, 1)
    assert len(parts) == 1
    assert set(enumerator.labels_for_partition(None, parts[0])) == set(enumerator.labels())


def test_label_union(host):
    assert label_union(host, ()) == 0
    assert label_union(host, (0,)) == host.edge_bits(0)
    assert label_union(host, (0, 2)) == host.edge_bits(0) | host.edge_bits(2)
