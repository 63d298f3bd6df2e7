"""(Generalized) hypertree decompositions as user-facing objects.

A decomposition is a rooted tree whose nodes carry a *bag* χ(u) (a set of
vertex names) and a *cover* λ(u) (a set of edge names of the underlying
hypergraph).  :class:`HypertreeDecomposition` additionally promises the
special condition (condition (4) of the paper's Definition in Section 2);
:class:`GeneralizedHypertreeDecomposition` does not.  Whether the promise is
kept is checked by :mod:`repro.decomp.validation`, which all decomposers run
through in the test-suite.

Trees are values: a :class:`DecompositionNode` is frozen, with its children
in a tuple, so no node changes once built.  A tree may therefore be shared
by any number of decompositions, caches and results; building a different
tree means building new nodes (``dataclasses.replace`` for one node).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

from ..exceptions import DecompositionError
from ..hypergraph import Hypergraph

__all__ = [
    "DecompositionNode",
    "Decomposition",
    "HypertreeDecomposition",
    "GeneralizedHypertreeDecomposition",
]


@dataclass(frozen=True, slots=True)
class DecompositionNode:
    """A node of a decomposition tree: a bag χ(u) and a cover λ(u).

    Frozen, so it may be shared: the constructor also takes other iterables
    for the three fields and stores them as frozensets and a tuple.
    """

    bag: frozenset[str]
    cover: frozenset[str]
    children: tuple["DecompositionNode", ...] = ()

    def __post_init__(self) -> None:
        # Coerce only a wrong type: the builders on the hot paths (fragment
        # conversion, lift, the codec) already pass the right ones.
        if type(self.bag) is not frozenset:
            object.__setattr__(self, "bag", frozenset(self.bag))
        if type(self.cover) is not frozenset:
            object.__setattr__(self, "cover", frozenset(self.cover))
        if type(self.children) is not tuple:
            object.__setattr__(self, "children", tuple(self.children))

    @property
    def width(self) -> int:
        """|λ(u)| of this node."""
        return len(self.cover)

    def nodes(self) -> Iterator["DecompositionNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def subtree_bags(self) -> frozenset[str]:
        """χ(T_u): the union of the bags of the subtree rooted at this node."""
        result: set[str] = set()
        for node in self.nodes():
            result |= node.bag
        return frozenset(result)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Common behaviour of hypertree and generalized hypertree decompositions.

    A frozen value compared by identity.  The constructor checks that every
    cover name and bag vertex exists in ``hypergraph`` and keeps ``root`` as
    given, without a copy: its nodes are frozen, so several decompositions
    may share one tree.
    """

    kind = "decomposition"

    hypergraph: Hypergraph
    root: DecompositionNode

    def __post_init__(self) -> None:
        self._check_edges_exist()

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def nodes(self) -> Iterator[DecompositionNode]:
        """Iterate over all nodes in pre-order."""
        return self.root.nodes()

    def __len__(self) -> int:
        return sum(1 for _ in self.nodes())

    @property
    def width(self) -> int:
        """The width: the maximum cover size over all nodes."""
        return max(node.width for node in self.nodes())

    @property
    def depth(self) -> int:
        """The depth of the decomposition tree (root has depth 1)."""

        def rec(node: DecompositionNode) -> int:
            if not node.children:
                return 1
            return 1 + max(rec(child) for child in node.children)

        return rec(self.root)

    # ------------------------------------------------------------------ #
    # presentation
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """A human-readable indented rendering of the decomposition."""
        lines: list[str] = []

        def rec(node: DecompositionNode, indent: int) -> None:
            cover = ",".join(sorted(node.cover))
            bag = ",".join(sorted(node.bag))
            lines.append(f"{' ' * indent}λ={{{cover}}} χ={{{bag}}}")
            for child in node.children:
                rec(child, indent + 2)

        rec(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} of {self.hypergraph.name or 'hypergraph'} "
            f"width={self.width} nodes={len(self)}>"
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _check_edges_exist(self) -> None:
        vertex_set = self.hypergraph.vertices
        for node in self.nodes():
            for edge_name in node.cover:
                if edge_name not in self.hypergraph:
                    raise DecompositionError(
                        f"cover of a node references unknown edge {edge_name!r}"
                    )
            if not node.bag <= vertex_set:
                unknown = sorted(node.bag - vertex_set)
                raise DecompositionError(
                    f"bag of a node references unknown vertices {unknown}"
                )


class GeneralizedHypertreeDecomposition(Decomposition):
    """A decomposition claiming GHD conditions (no special condition)."""

    kind = "ghd"


class HypertreeDecomposition(GeneralizedHypertreeDecomposition):
    """A decomposition claiming all four HD conditions of the paper."""

    kind = "hd"

