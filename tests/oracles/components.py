"""[U]-components by the definition: a pairwise union-find over items.

Definition 3.2 as written: the items of a component are its edges and its
special edges; two items f1, f2 are [U]-adjacent iff ``(f1 ∩ f2) \\ U ≠ ∅``;
the [U]-components are the classes of the transitive closure, and an item
contained in U is in no class.  Every pair of items is tested — no adjacency
table, no frontier, nothing shared with ``ComponentSplitter``.
"""

from __future__ import annotations

from repro.decomp.extended import BitComp
from repro.hypergraph import Hypergraph
from repro.hypergraph.bitset import from_indices, indices_of


def components_by_definition(
    host: Hypergraph, comp: BitComp, separator: int
) -> list[tuple[int, int, int, int]]:
    """The [separator]-components of ``comp`` as ``(edge_mask, special_mask,
    vertices, remaining)`` tuples, the shape ``ComponentSplitter._flood``
    yields.

    Items are ordered edges first (by index), then specials (by position in
    ``comp.specials``); the groups come ordered by their first item.
    ``special_mask`` is over positions, ``vertices`` is the union of the
    group's items and ``remaining`` counts the items after the group's first
    item that no group so far holds — what a fill starting every group at
    the lowest unvisited item has not looked at yet.
    """
    edges = indices_of(comp.edges)
    items = [host.edge_bits(e) for e in edges] + list(comp.specials)
    parent = list(range(len(items)))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for i, first in enumerate(items):
        for j in range(i + 1, len(items)):
            if first & items[j] & ~separator:
                parent[find(j)] = find(i)

    classes: dict[int, list[int]] = {}
    for i, bits in enumerate(items):
        if bits & ~separator:  # an item inside U is in no component
            classes.setdefault(find(i), []).append(i)
    groups = sorted(classes.values())  # members ascend, so: by first item

    result = []
    seen: set[int] = set()
    for members in groups:
        seen.update(members)
        vertices = 0
        for i in members:
            vertices |= items[i]
        remaining = sum(1 for i in range(members[0] + 1, len(items)) if i not in seen)
        result.append(
            (
                from_indices(edges[i] for i in members if i < len(edges)),
                from_indices(i - len(edges) for i in members if i >= len(edges)),
                vertices,
                remaining,
            )
        )
    return result
