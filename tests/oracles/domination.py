"""Subedge domination by the definition: the pairwise scan.

This is the O(n²) loop ``CoverEnumerator._dominated_pool`` ran before its
strict branch moved to one AND-chain per edge over the incidence table.  It
reads like the rule in the ``repro.decomp.covers`` module docstring and is
kept as the ground truth for both ``strict`` modes.
"""

from __future__ import annotations

from repro.hypergraph import Hypergraph


def dominated_pool_pairwise(
    host: Hypergraph,
    pool: list[int],
    require: int | None,
    component_vertices: int,
    strict: bool,
) -> tuple[list[int], int]:
    """``(survivors, skipped)`` of the sorted edge-index list ``pool``.

    Edge ``e`` is dominated by ``f`` iff ``e ∩ V ⊆ f ∩ V`` (``strict=False``:
    only ``e ∩ V = f ∩ V``), ``f`` is at least as eligible for the progress
    rule (``require``, an edge-index bitmask or None) as ``e``, and — on
    equal restrictions and equal progress status — ``f`` has the smaller
    index.
    """
    restricted = [host.edge_bits(e) & component_vertices for e in pool]
    progress = None if require is None else [(require >> e) & 1 != 0 for e in pool]
    survivors: list[int] = []
    n = len(pool)
    for i in range(n):
        ri = restricted[i]
        dominated = False
        for j in range(n):
            if j == i:
                continue
            rj = restricted[j]
            if ri & ~rj or (not strict and ri != rj):
                continue  # not contained (not equal): no domination
            if progress is not None and progress[i] and not progress[j]:
                continue  # never lose a progress witness to an old edge
            if ri == rj:
                same_status = progress is None or progress[i] == progress[j]
                if same_status and j > i:
                    continue  # tie-break: the smaller index survives
            dominated = True
            break
        if not dominated:
            survivors.append(pool[i])
    return survivors, n - len(survivors)
