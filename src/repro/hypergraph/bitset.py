"""Bitset helpers for vertex sets.

Throughout the decomposition algorithms, sets of hypergraph vertices are
represented as Python integers used as bitmasks: vertex ``i`` is a member of
the set ``s`` iff bit ``i`` of ``s`` is set.  Python integers are arbitrary
precision, so this representation works for hypergraphs of any size, and the
set operations the algorithms need most (union, intersection, difference,
subset tests) become single arithmetic operations.

Code writes those operations inline; this module holds only the
conversions between a bitset and its indices.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

__all__ = ["bits_of", "from_indices", "indices_of"]


def from_indices(indices: Iterable[int]) -> int:
    """Build a bitset from an iterable of non-negative integer indices."""
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


def indices_of(mask: int) -> list[int]:
    """Return the sorted list of indices contained in ``mask``."""
    return list(bits_of(mask))


def bits_of(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
