"""Structural properties of hypergraphs.

Contains the statistics reported by the HyperBench tooling (degree, rank,
intersection width, ...) and alpha-acyclicity via the GYO reduction.  Acyclic
hypergraphs have hypertree width 1, which gives the decomposers a cheap
certificate for the large ``|E| <= 10`` portion of the corpus and gives the
tests an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import Hypergraph

__all__ = [
    "HypergraphStatistics",
    "statistics",
    "degree",
    "rank",
    "intersection_width",
    "is_alpha_acyclic",
    "gyo_reduction",
    "connected_components",
]


@dataclass(frozen=True)
class HypergraphStatistics:
    """Summary statistics of a hypergraph."""

    num_vertices: int
    num_edges: int
    rank: int
    degree: int
    intersection_width: int
    alpha_acyclic: bool


def statistics(hypergraph: Hypergraph) -> HypergraphStatistics:
    """Compute the full set of summary statistics for ``hypergraph``."""
    return HypergraphStatistics(
        num_vertices=hypergraph.num_vertices,
        num_edges=hypergraph.num_edges,
        rank=rank(hypergraph),
        degree=degree(hypergraph),
        intersection_width=intersection_width(hypergraph),
        alpha_acyclic=is_alpha_acyclic(hypergraph),
    )


def rank(hypergraph: Hypergraph) -> int:
    """The maximum edge cardinality."""
    return max(len(hypergraph.edge_vertices(i)) for i in range(hypergraph.num_edges))


def degree(hypergraph: Hypergraph) -> int:
    """The maximum number of edges any single vertex occurs in."""
    counts: dict[str, int] = {}
    for i in range(hypergraph.num_edges):
        for vertex in hypergraph.edge_vertices(i):
            counts[vertex] = counts.get(vertex, 0) + 1
    return max(counts.values())


def intersection_width(hypergraph: Hypergraph) -> int:
    """The maximum size of the intersection of two distinct edges."""
    widest = 0
    for i in range(hypergraph.num_edges):
        bits_i = hypergraph.edge_bits(i)
        for j in range(i + 1, hypergraph.num_edges):
            widest = max(widest, (bits_i & hypergraph.edge_bits(j)).bit_count())
    return widest


def gyo_reduction(hypergraph: Hypergraph) -> list[frozenset[str]]:
    """Run the GYO (Graham/Yu-Ozsoyoglu) reduction and return the residual edges.

    The reduction repeatedly removes *ears*: vertices that occur in a single
    edge, and edges that are contained in another edge.  The hypergraph is
    alpha-acyclic iff the residue is empty (or a single edge).
    """
    edges = [set(hypergraph.edge_vertices(i)) for i in range(hypergraph.num_edges)]
    changed = True
    while changed:
        changed = False
        # Remove vertices occurring in exactly one remaining edge.
        occurrences: dict[str, int] = {}
        for edge in edges:
            for vertex in edge:
                occurrences[vertex] = occurrences.get(vertex, 0) + 1
        for edge in edges:
            lonely = {v for v in edge if occurrences[v] == 1}
            if lonely:
                edge -= lonely
                changed = True
        # Drop empty edges and edges contained in some other edge.
        edges = [edge for edge in edges if edge]
        removed_index: int | None = None
        for i, edge in enumerate(edges):
            for j, other in enumerate(edges):
                if i != j and edge <= other:
                    removed_index = i
                    break
            if removed_index is not None:
                break
        if removed_index is not None:
            edges.pop(removed_index)
            changed = True
    return [frozenset(edge) for edge in edges]


def is_alpha_acyclic(hypergraph: Hypergraph) -> bool:
    """True iff the hypergraph is alpha-acyclic (equivalently, hw = 1)."""
    residual = gyo_reduction(hypergraph)
    return len(residual) <= 1


def connected_components(hypergraph: Hypergraph) -> list[list[int]]:
    """Partition the edge indices into vertex-connected components."""
    parent = list(range(hypergraph.num_edges))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    by_vertex: dict[int, int] = {}
    for index in range(hypergraph.num_edges):
        bits = hypergraph.edge_bits(index)
        while bits:
            low = bits & -bits
            vertex = low.bit_length() - 1
            bits ^= low
            if vertex in by_vertex:
                union(by_vertex[vertex], index)
            else:
                by_vertex[vertex] = index
    groups: dict[int, list[int]] = {}
    for index in range(hypergraph.num_edges):
        groups.setdefault(find(index), []).append(index)
    return list(groups.values())

