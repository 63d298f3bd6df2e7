"""A fork-shared, lock-free table of refuted subproblems.

The parallel decomposer's workers each keep a private memo; what they *share*
is this table of memo keys ``(comp.edges, comp.specials, conn, allowed)``
whose search returned ``None`` below the partitioned root.  It is an
anonymous shared mapping created before the first fork, so every worker — a
respawned one included — reads and writes the same pages with no pipe, no
pickling and no lock.

A slot is two 64-bit words: the halves of a 128-bit BLAKE2b digest of the
key's ``marshal`` encoding.  The table is direct-mapped and lossy: a colliding
entry overwrites, a lost or torn entry reads as absent and costs one
re-expansion.  A *false* hit needs all 128 bits of a key nobody wrote — a
torn slot can only mix words of digests that were written.  The digest is
not ``hash()``: CPython hashes ints modulo ``2**61 - 1``, so the components
{e61} and {e0} of a 62-edge host would share every bit of it.
"""

from __future__ import annotations

import marshal
import mmap
from hashlib import blake2b

__all__ = ["RefutedTable"]


class RefutedTable:
    """Set of refuted memo keys with ``add`` and ``in``, shared across forks."""

    __slots__ = ("_mask", "_map", "_words")

    def __init__(self, slots: int = 1 << 16) -> None:
        if slots < 1 or slots & (slots - 1):
            raise ValueError("slots must be a power of two")
        self._mask = slots - 1
        # Anonymous and MAP_SHARED: only the touched pages ever exist.
        self._map = mmap.mmap(-1, slots * 16)
        self._words = memoryview(self._map).cast("Q")

    def _slot(self, key: tuple) -> tuple[int, int, int]:
        # marshal version 2: injective, and free of version 3's FLAG_REF,
        # which depends on reference counts.
        digest = blake2b(marshal.dumps(key, 2), digest_size=16).digest()
        tag = int.from_bytes(digest[:8], "little")
        return 2 * (tag & self._mask), tag, int.from_bytes(digest[8:], "little")

    def add(self, key: tuple) -> None:
        index, tag, check = self._slot(key)
        words = self._words
        # Tag last: a reader never pairs the new tag with the old check.
        words[index] = 0
        words[index + 1] = check
        words[index] = tag

    def __contains__(self, key: tuple) -> bool:
        index, tag, check = self._slot(key)
        words = self._words
        return words[index] == tag and words[index + 1] == check

    def close(self) -> None:
        """Unmap the table (the view has to go first)."""
        self._words.release()
        self._map.close()
