"""λ-label enumeration by the definition: a filter over ``itertools.combinations``.

This is ``CoverEnumerator.labels_reference``, the enumerator the library
shipped before the branch-and-bound search, moved here (``self`` became
``enumerator``).  The optimised ``CoverEnumerator.labels`` must yield
the byte-identical sequence.  Pools are edge-index bitmasks, as everywhere;
nothing is shared with the optimised path.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations

from repro.decomp.covers import CoverEnumerator
from repro.hypergraph.bitset import from_indices, indices_of


def labels_reference(
    enumerator: CoverEnumerator,
    allowed: int | None = None,
    require_from: int | None = None,
    overlap_with: int | None = None,
    cover: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Every label ``enumerator.labels`` may yield, in the contract's order."""
    host = enumerator.host
    pool = indices_of(host.all_edges_mask if allowed is None else allowed)
    if overlap_with is not None:
        pool = [i for i in pool if host.edge_bits(i) & overlap_with]
    if not pool:
        return
    require = require_from or None
    if require is not None and not (require & from_indices(pool)):
        return
    pool_bits = [host.edge_bits(i) for i in pool]
    full_union = 0
    for bits in pool_bits:
        full_union |= bits
    if cover is not None and cover & ~full_union:
        return
    for size in range(1, enumerator.k + 1):
        for combo_positions in combinations(range(len(pool)), size):
            label = tuple(pool[p] for p in combo_positions)
            if require is not None and not any(
                (require >> e) & 1 for e in label
            ):
                continue
            if cover is not None:
                union = 0
                for p in combo_positions:
                    union |= pool_bits[p]
                if cover & ~union:
                    continue
            yield label
