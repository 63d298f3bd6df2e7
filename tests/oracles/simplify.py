"""The simplifier's two reductions by their definitions: all-pairs subset tests.

Reduction 1 tests every surviving edge against every other one; reduction 2
collects each vertex's membership as a frozenset of edge names.  The shipping
:mod:`repro.pipeline.simplify` answers both from position bitmasks;
:func:`simplify` here iterates these reference reductions to a fixpoint,
round by round, so a test can compare the shipping single pass against it
step for step.
"""

from __future__ import annotations

from repro.hypergraph import Hypergraph
from repro.pipeline.simplify import (
    CollapsedVertices,
    RemovedEdge,
    SimplificationTrace,
)


def _remove_subsumed(
    edges: dict[str, frozenset[str]], steps: list
) -> tuple[dict[str, frozenset[str]], bool]:
    """Drop every edge contained in another surviving edge."""
    # Deterministic scan order: smaller edges first (they can only be the
    # subsumed side); ties broken by name so duplicates keep the smaller name.
    order = sorted(edges, key=lambda n: (len(edges[n]), n))
    surviving = dict(edges)
    changed = False
    for name in order:
        vertices = surviving.get(name)
        if vertices is None:
            continue
        for other, other_vertices in surviving.items():
            if other == name:
                continue
            # Proper subsets always go; exact duplicates keep the smaller name.
            if vertices < other_vertices or (
                vertices == other_vertices and name > other
            ):
                del surviving[name]
                steps.append(RemovedEdge(name=name, witness=other))
                changed = True
                break
    return surviving, changed


def _collapse_vertices(
    edges: dict[str, frozenset[str]], steps: list
) -> tuple[dict[str, frozenset[str]], bool]:
    """Collapse every class of identical-membership vertices onto one vertex."""
    membership: dict[str, frozenset[str]] = {}
    for name, vertices in edges.items():
        for vertex in vertices:
            membership[vertex] = membership.get(vertex, frozenset()) | {name}
    classes: dict[frozenset[str], list[str]] = {}
    for vertex, edge_set in membership.items():
        classes.setdefault(edge_set, []).append(vertex)

    to_remove: set[str] = set()
    for group in classes.values():
        if len(group) < 2:
            continue
        group.sort()
        representative, partners = group[0], tuple(group[1:])
        steps.append(CollapsedVertices(representative=representative, removed=partners))
        to_remove.update(partners)
    if not to_remove:
        return edges, False
    reduced = {
        name: frozenset(v for v in vertices if v not in to_remove)
        for name, vertices in edges.items()
    }
    return reduced, True


def simplify(hypergraph: Hypergraph) -> SimplificationTrace:
    """The reference reductions iterated to a fixpoint, round by round."""
    edges = hypergraph.edges_as_dict()
    steps: list[RemovedEdge | CollapsedVertices] = []
    while True:
        edges, removed = _remove_subsumed(edges, steps)
        edges, collapsed = _collapse_vertices(edges, steps)
        if not (removed or collapsed):
            break
    if not steps:
        return SimplificationTrace(original=hypergraph, reduced=hypergraph)
    ordered = {
        name: edges[name] for name in hypergraph.edge_names if name in edges
    }
    reduced = Hypergraph(ordered, name=hypergraph.name)
    return SimplificationTrace(original=hypergraph, reduced=reduced, steps=steps)
