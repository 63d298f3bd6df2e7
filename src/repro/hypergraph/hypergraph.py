"""Core hypergraph data structure.

A :class:`Hypergraph` is an immutable collection of named, non-empty hyperedges
over named vertices.  Following the paper (Section 2), a hypergraph is
identified with its set of edges; the vertex set is the union of the edges and
isolated vertices are not representable.

Internally every vertex receives an integer id and every edge is stored as a
frozenset of vertex names, as the sorted tuple of those names (the canonical
hash reads it) and as an integer bitmask over vertex ids (see
:mod:`repro.hypergraph.bitset`).  The decomposition algorithms work
exclusively on edge indices and vertex bitmasks; the name-based views exist
for users, IO and validation.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Mapping, Sequence

from ..exceptions import HypergraphError
from . import bitset

__all__ = ["Hypergraph"]

Vertex = str


class Hypergraph:
    """An immutable hypergraph with named vertices and named edges.

    Parameters
    ----------
    edges:
        Either a mapping from edge names to iterables of vertex names, or an
        iterable of iterables of vertex names (in which case edges are named
        ``e0, e1, ...`` in iteration order).
    name:
        Optional instance name (used by the benchmark corpus and IO).

    Raises
    ------
    HypergraphError
        If an edge is empty or a duplicate edge name is supplied.
    """

    __slots__ = (
        "name",
        "_edge_names",
        "_edge_sets",
        "_edge_sorted",
        "_edge_bits",
        "_edge_index",
        "_vertex_names",
        "_vertex_index",
        "_all_vertices_mask",
        "_incidence_masks",
        "_adjacency_masks",
        "_canonical_hash",
    )

    def __init__(
        self,
        edges: Mapping[str, Iterable[Vertex]] | Iterable[Iterable[Vertex]],
        name: str = "",
    ) -> None:
        self.name = name
        if isinstance(edges, Mapping):
            named = list(edges.items())
        else:
            named = [(f"e{i}", vs) for i, vs in enumerate(edges)]

        self._edge_names: list[str] = []
        self._edge_sets: list[frozenset[Vertex]] = []
        self._edge_sorted: list[tuple[Vertex, ...]] = []
        self._edge_index: dict[str, int] = {}
        self._vertex_names: list[Vertex] = []
        self._vertex_index: dict[Vertex, int] = {}
        vertex_index = self._vertex_index
        vertex_names = self._vertex_names
        edge_bits: list[int] = []

        for edge_name, vertices in named:
            vertex_set = frozenset(vertices)
            if not vertex_set:
                raise HypergraphError(f"edge {edge_name!r} is empty")
            if edge_name in self._edge_index:
                raise HypergraphError(f"duplicate edge name {edge_name!r}")
            self._edge_index[edge_name] = len(self._edge_names)
            ordered = tuple(sorted(vertex_set))
            self._edge_names.append(edge_name)
            self._edge_sets.append(vertex_set)
            self._edge_sorted.append(ordered)
            # Intern new vertices (ids by first appearance, sorted within the
            # edge) and build the edge's bitmask in the same pass.
            bits = 0
            for vertex in ordered:
                vertex_id = vertex_index.get(vertex)
                if vertex_id is None:
                    vertex_id = vertex_index[vertex] = len(vertex_names)
                    vertex_names.append(vertex)
                bits |= 1 << vertex_id
            edge_bits.append(bits)

        self._edge_bits: tuple[int, ...] = tuple(edge_bits)
        self._all_vertices_mask = (1 << len(self._vertex_names)) - 1
        self._incidence_masks: tuple[int, ...] | None = None
        self._adjacency_masks: tuple[int, ...] | None = None
        self._canonical_hash: str | None = None

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of hyperedges."""
        return len(self._edge_names)

    @property
    def num_vertices(self) -> int:
        """Number of vertices (union of all edges)."""
        return len(self._vertex_names)

    @property
    def edge_names(self) -> Sequence[str]:
        """Edge names in index order."""
        return tuple(self._edge_names)

    @property
    def vertex_names(self) -> Sequence[Vertex]:
        """Vertex names in id order."""
        return tuple(self._vertex_names)

    @property
    def vertices(self) -> frozenset[Vertex]:
        """The vertex set as a frozenset of names."""
        return frozenset(self._vertex_names)

    @property
    def all_vertices_mask(self) -> int:
        """Bitmask containing every vertex of the hypergraph."""
        return self._all_vertices_mask

    @property
    def all_edges_mask(self) -> int:
        """Bitmask over *edge indices* containing every edge of the hypergraph."""
        return (1 << len(self._edge_names)) - 1

    def edge_name(self, index: int) -> str:
        """Return the name of the edge with the given index."""
        return self._edge_names[index]

    def edge_index(self, name: str) -> int:
        """Return the index of the edge with the given name."""
        try:
            return self._edge_index[name]
        except KeyError:
            raise HypergraphError(f"unknown edge {name!r}") from None

    def edge_vertices(self, index: int) -> frozenset[Vertex]:
        """Return the vertex names of the edge with the given index."""
        return self._edge_sets[index]

    def edge_bits(self, index: int) -> int:
        """Return the vertex bitmask of the edge with the given index."""
        return self._edge_bits[index]

    @property
    def edge_masks(self) -> tuple[int, ...]:
        """The vertex bitmasks of all edges, in index order.

        The table :meth:`edge_bits` reads: hot loops fetch it once and index
        it instead of paying a method call per edge.
        """
        return self._edge_bits

    def edges_as_dict(self) -> dict[str, frozenset[Vertex]]:
        """Return a name → vertex-set mapping of all edges."""
        return dict(zip(self._edge_names, self._edge_sets))

    def vertex_id(self, vertex: Vertex) -> int:
        """Return the integer id of a vertex name."""
        try:
            return self._vertex_index[vertex]
        except KeyError:
            raise HypergraphError(f"unknown vertex {vertex!r}") from None

    def vertex_of_id(self, vertex_id: int) -> Vertex:
        """Return the vertex name for an integer id."""
        return self._vertex_names[vertex_id]

    def vertices_to_mask(self, vertices: Iterable[Vertex]) -> int:
        """Convert an iterable of vertex names to a bitmask."""
        return bitset.from_indices(self._vertex_index[v] for v in vertices)

    def mask_to_vertices(self, mask: int) -> frozenset[Vertex]:
        """Convert a vertex bitmask back to a frozenset of names."""
        return frozenset(self._vertex_names[i] for i in bitset.bits_of(mask))

    def edges_to_mask(self, edge_indices: Iterable[int]) -> int:
        """Union of the vertex bitmasks of the given edge indices."""
        mask = 0
        for index in edge_indices:
            mask |= self._edge_bits[index]
        return mask

    # ------------------------------------------------------------------ #
    # derived structures
    # ------------------------------------------------------------------ #
    @property
    def has_incidence_masks(self) -> bool:
        """True once the incidence-mask table has been built (lazily, on first use)."""
        return self._incidence_masks is not None

    def incidence_masks(self) -> tuple[int, ...]:
        """The vertex → edge-index incidence table, as bitmasks.

        Entry ``v`` is the bitmask over *edge indices* of the edges containing
        the vertex with id ``v`` — the transpose of :attr:`edge_masks`.  The
        edges containing every vertex of a set are one AND-chain over its
        rows, the edges touching a set one OR-chain.  Built once per
        hypergraph on first use and cached (the instance is immutable).
        """
        if self._incidence_masks is None:
            table = [0] * len(self._vertex_names)
            for index, bits in enumerate(self._edge_bits):
                edge_bit = 1 << index
                for vertex_id in bitset.bits_of(bits):
                    table[vertex_id] |= edge_bit
            self._incidence_masks = tuple(table)
        return self._incidence_masks

    def adjacency_masks(self) -> tuple[int, ...]:
        """The edge → edge-index adjacency table, as bitmasks.

        Entry ``e`` is the bitmask over *edge indices* of the edges sharing a
        vertex with edge ``e`` (``e`` itself included): the OR of the
        :meth:`incidence_masks` rows of its vertices.  The component
        splitter's flood fill expands an edge that no separator vertex
        touches with one ``&`` of its row against the unvisited edge set.
        One int per edge, built on first use (building the incidence table
        on the way) and cached.
        """
        if self._adjacency_masks is None:
            incidence = self.incidence_masks()
            table = []
            for bits in self._edge_bits:
                row = 0
                for vertex_id in bitset.bits_of(bits):
                    row |= incidence[vertex_id]
                table.append(row)
            self._adjacency_masks = tuple(table)
        return self._adjacency_masks

    def subhypergraph(self, edge_indices: Iterable[int], name: str = "") -> "Hypergraph":
        """Return the subhypergraph induced by the given edge indices."""
        indices = sorted(set(edge_indices))
        return Hypergraph(
            {self._edge_names[i]: self._edge_sets[i] for i in indices},
            name=name or (f"{self.name}-sub" if self.name else ""),
        )

    def rename(self, name: str) -> "Hypergraph":
        """Return a copy of this hypergraph carrying a different name."""
        return Hypergraph(self.edges_as_dict(), name=name)

    def canonical_hash(self) -> str:
        """A canonical content digest of the hypergraph, as a hex string.

        The digest is computed over the sorted sequence of
        ``(edge name, sorted vertex names)`` pairs, so it is insensitive to the
        order in which edges were supplied and to the order of vertices within
        an edge, but sensitive to edge names and vertex names.  The instance
        :attr:`name` is *not* part of the digest — two hypergraphs with the
        same edges hash identically regardless of what they are called.

        Used by :mod:`repro.pipeline.engine` as the instance part of its
        result-cache key.  The value is computed lazily and memoised.
        """
        if self._canonical_hash is None:
            # Edge names are unique, so the sort never compares vertex tuples.
            # repr() of the sorted pair list is an unambiguous serialisation
            # (names are quoted, so separator characters inside names cannot
            # collide with the structure).
            pairs = sorted(zip(self._edge_names, self._edge_sorted))
            try:
                names = "".join(self._edge_names) + "".join(self._vertex_names)
            except TypeError:  # a name that is not a str
                names = "'"
            if names.isprintable() and "'" not in names and "\\" not in names:
                # Every name's repr() is the name in single quotes: write the
                # same text directly, at half the cost of repr().
                payload = "[" + ", ".join(
                    f"('{name}', ('{vertices[0]}',))" if len(vertices) == 1
                    else f"""('{name}', ('{"', '".join(vertices)}'))"""
                    for name, vertices in pairs) + "]"
            else:
                payload = repr(pairs)
            self._canonical_hash = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return self._canonical_hash

    # ------------------------------------------------------------------ #
    # dunder protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_edges

    def __iter__(self) -> Iterator[str]:
        return iter(self._edge_names)

    def __contains__(self, edge_name: object) -> bool:
        return edge_name in self._edge_index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.edges_as_dict() == other.edges_as_dict()

    def __hash__(self) -> int:
        return hash(frozenset(self.edges_as_dict().items()))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Hypergraph{label} |V|={self.num_vertices} |E|={self.num_edges}>"
        )
