"""Extended subhypergraphs and HD fragments (Section 3 of the paper).

The recursive ``Decomp`` function of log-k-decomp operates on *extended
subhypergraphs* ⟨E', Sp, Conn⟩ of a host hypergraph H (Definition 3.1):

* ``E'`` — a subset of the edges of H,
* ``Sp`` — a set of *special edges*, i.e. arbitrary vertex sets of H that act
  as interfaces to HD fragments constructed elsewhere,
* ``Conn`` — a set of vertices that the root bag of the fragment must contain
  (the interface to the fragment "above").

The algorithms carry the pair ``(E', Sp)`` as a :class:`BitComp` (the ``Comp``
record of Algorithm 1/2 in the paper, packed into ints) and pass ``Conn``
separately as a vertex bitmask.

HDs *of* extended subhypergraphs (Definition 3.3) are represented as trees of
:class:`FragmentNode`; special edges appear as dedicated leaf nodes whose
λ-label is the special edge itself.  Fragment nodes are frozen, with their
children in a tuple, so fragments and the searches' memos may share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from ..exceptions import DecompositionError
from ..hypergraph import Hypergraph
from ..hypergraph import bitset

__all__ = [
    "BitComp",
    "FragmentNode",
    "full_bitcomp",
]


class BitComp(NamedTuple):
    """The ``Comp`` record of Algorithm 1/2: an edge set plus special edges.

    ``edges`` is a bitmask over *edge indices* of the host hypergraph (bit
    ``i`` set iff edge ``i`` belongs to the component); ``specials`` holds the
    special edges as vertex bitmasks, kept sorted so that equal components
    hash equally (the subproblem memos rely on this).  Being a named tuple, a
    ``BitComp`` hashes as a flat ``(int, tuple)`` pair.  The positional
    constructor trusts its caller (the splitter hands over sorted tuples);
    :meth:`of` is the constructor for people.
    """

    edges: int
    specials: tuple[int, ...] = ()

    @classmethod
    def of(cls, edge_indices: Iterable[int], specials: Iterable[int] = ()) -> "BitComp":
        """Build a component from edge indices and (unsorted) special edges."""
        return cls(bitset.from_indices(edge_indices), tuple(sorted(specials)))

    @property
    def size(self) -> int:
        """|E'| + |Sp| — the size measure used by the balancedness checks."""
        return self.edges.bit_count() + len(self.specials)

    def with_special(self, special: int) -> "BitComp":
        """Return a copy with one additional special edge (kept sorted)."""
        return BitComp(self.edges, tuple(sorted(self.specials + (special,))))

    def difference(self, other: "BitComp") -> "BitComp":
        """Pointwise difference (line 35/38 of the algorithms)."""
        remaining = list(self.specials)
        for special in other.specials:
            if special in remaining:
                remaining.remove(special)
        return BitComp(self.edges & ~other.edges, tuple(remaining))

    def vertices(self, host: Hypergraph) -> int:
        """V(H') as a vertex bitmask: union of all edges and special edges."""
        mask = 0
        rest = self.edges
        edge_masks = host.edge_masks
        while rest:
            low = rest & -rest
            rest ^= low
            mask |= edge_masks[low.bit_length() - 1]
        for special in self.specials:
            mask |= special
        return mask


def full_bitcomp(host: Hypergraph) -> BitComp:
    """The component representing the whole host hypergraph: ⟨E(H), ∅⟩."""
    return BitComp(host.all_edges_mask, ())


@dataclass(frozen=True, slots=True)
class FragmentNode:
    """A node of an HD of an extended subhypergraph (Definition 3.3).

    Either a *regular* node with ``lam_edges`` ⊆ E(H) and χ ⊆ ∪λ, or a
    *special leaf* with ``special`` set to the special edge s, λ(u) = {s} and
    χ(u) = s.  χ is stored as a vertex bitmask of the host hypergraph.
    Nodes are frozen, so fragments may share them; ``children`` given as
    another iterable is stored as a tuple.
    """

    chi: int
    lam_edges: tuple[int, ...] = ()
    special: int | None = None
    children: tuple["FragmentNode", ...] = ()

    def __post_init__(self) -> None:
        if type(self.children) is not tuple:
            object.__setattr__(self, "children", tuple(self.children))
        if self.special is not None and self.lam_edges:
            raise DecompositionError(
                "a fragment node is either a regular node or a special leaf"
            )
        if self.special is not None and self.chi != self.special:
            raise DecompositionError("a special leaf must have chi equal to its special edge")

    @property
    def is_special_leaf(self) -> bool:
        """True iff this node is a placeholder leaf for a special edge."""
        return self.special is not None

    @property
    def width(self) -> int:
        """|λ(u)| of this node (a special leaf counts as 1)."""
        return 1 if self.is_special_leaf else len(self.lam_edges)

    def nodes(self) -> Iterator["FragmentNode"]:
        """Iterate over all nodes of the fragment in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def max_width(self) -> int:
        """The width of the fragment: the maximum |λ| over all nodes."""
        return max(node.width for node in self.nodes())

    def lambda_union(self, host: Hypergraph) -> int:
        """∪λ(u) as a vertex bitmask."""
        if self.is_special_leaf:
            return self.special or 0
        return host.edges_to_mask(self.lam_edges)

    def describe(self, host: Hypergraph, indent: int = 0) -> str:
        """Human-readable rendering of the fragment, mostly for debugging."""
        if self.is_special_leaf:
            label = "{special " + ",".join(sorted(host.mask_to_vertices(self.chi))) + "}"
        else:
            label = "{" + ",".join(host.edge_name(i) for i in self.lam_edges) + "}"
        bag = ",".join(sorted(host.mask_to_vertices(self.chi)))
        lines = [" " * indent + f"λ={label} χ={{{bag}}}"]
        for child in self.children:
            lines.append(child.describe(host, indent + 2))
        return "\n".join(lines)

