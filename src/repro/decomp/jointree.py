"""Join trees extracted from (generalized) hypertree decompositions.

The database application of HDs (the motivation in the paper's introduction)
works as follows: the bags of a width-k HD are materialised by joining the at
most k relations in each λ-label, which turns the query into an *acyclic*
instance whose join tree is the decomposition tree itself; Yannakakis'
algorithm then evaluates the acyclic instance in polynomial time.

A :class:`JoinTree` is that intermediate object: a tree of bag nodes, each
recording which hyperedges (atoms/relations) it is responsible for joining.
The actual relational evaluation lives in :mod:`repro.query` (a join tree
compiles to a :class:`~repro.query.plan.QueryPlan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

from ..exceptions import DecompositionError
from ..hypergraph import Hypergraph
from .decomposition import Decomposition

__all__ = ["JoinTreeNode", "JoinTree", "join_tree_from_decomposition"]


@dataclass(frozen=True, slots=True)
class JoinTreeNode:
    """A node of a join tree: the bag variables and the atoms assigned to it.

    Frozen like the decomposition nodes it is built from; ``children`` given
    as another iterable is stored as a tuple.
    """

    variables: frozenset[str]
    cover_edges: frozenset[str]
    assigned_edges: frozenset[str] = frozenset()
    children: tuple["JoinTreeNode", ...] = ()

    def __post_init__(self) -> None:
        if type(self.children) is not tuple:
            object.__setattr__(self, "children", tuple(self.children))

    def nodes(self) -> Iterator["JoinTreeNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def post_order(self) -> Iterator["JoinTreeNode"]:
        """Post-order traversal (children before their parent)."""
        for child in self.children:
            yield from child.post_order()
        yield self


class JoinTree:
    """A join tree over a hypergraph, extracted from a decomposition."""

    def __init__(self, hypergraph: Hypergraph, root: JoinTreeNode) -> None:
        self.hypergraph = hypergraph
        self.root = root

    def nodes(self) -> Iterator[JoinTreeNode]:
        """Iterate over all join tree nodes in pre-order."""
        return self.root.nodes()

    def post_order(self) -> Iterator[JoinTreeNode]:
        """Iterate over all join tree nodes in post-order."""
        return self.root.post_order()

    def numbered(self) -> tuple[list[JoinTreeNode], list[int | None], list[list[int]]]:
        """Deterministic node numbering for plan compilation.

        Returns ``(nodes, parent, children)`` where ``nodes`` lists the tree
        nodes in pre-order (the root has id 0), ``parent[i]`` is the id of
        node i's parent (``None`` for the root) and ``children[i]`` lists the
        ids of node i's children in tree order.
        """
        nodes = list(self.nodes())
        ids = {id(node): index for index, node in enumerate(nodes)}
        parent: list[int | None] = [None] * len(nodes)
        children: list[list[int]] = [[] for _ in nodes]
        for index, node in enumerate(nodes):
            for child in node.children:
                child_id = ids[id(child)]
                parent[child_id] = index
                children[index].append(child_id)
        return nodes, parent, children

    def __len__(self) -> int:
        return sum(1 for _ in self.nodes())

    @property
    def width(self) -> int:
        """The maximum number of cover edges of any node."""
        return max(len(node.cover_edges) for node in self.nodes())

    def assigned_edges(self) -> frozenset[str]:
        """All hyperedges assigned to some node."""
        result: set[str] = set()
        for node in self.nodes():
            result |= node.assigned_edges
        return frozenset(result)

    def validate(self) -> None:
        """Check that every hyperedge is assigned to exactly one node whose
        variables cover it, and that the running-intersection property holds."""
        seen: dict[str, int] = {}
        for node in self.nodes():
            for edge_name in node.assigned_edges:
                seen[edge_name] = seen.get(edge_name, 0) + 1
                edge = self.hypergraph.edge_vertices(
                    self.hypergraph.edge_index(edge_name)
                )
                if not edge <= node.variables:
                    raise DecompositionError(
                        f"join tree node does not cover its assigned edge {edge_name!r}"
                    )
        for edge_name in self.hypergraph.edge_names:
            if seen.get(edge_name, 0) != 1:
                raise DecompositionError(
                    f"edge {edge_name!r} assigned to {seen.get(edge_name, 0)} nodes, "
                    f"expected exactly 1"
                )
        self._check_running_intersection()

    def _check_running_intersection(self) -> None:
        for variable in self.hypergraph.vertices:
            containing = {id(n) for n in self.nodes() if variable in n.variables}
            if not containing:
                continue
            blocks = 0

            def rec(node: JoinTreeNode, parent_in: bool) -> None:
                nonlocal blocks
                inside = id(node) in containing
                if inside and not parent_in:
                    blocks += 1
                for child in node.children:
                    rec(child, inside)

            rec(self.root, False)
            if blocks > 1:
                raise DecompositionError(
                    f"running intersection property violated for variable {variable!r}"
                )


def join_tree_from_decomposition(decomposition: Decomposition) -> JoinTree:
    """Build a join tree from a (G)HD.

    Every hyperedge is assigned to one node whose bag covers it (such a node
    exists by HD condition 1); the tree structure and bags are taken from the
    decomposition unchanged.
    """
    hypergraph = decomposition.hypergraph
    assignment: dict[int, set[str]] = {}
    for index in range(hypergraph.num_edges):
        edge_name = hypergraph.edge_name(index)
        edge = hypergraph.edge_vertices(index)
        target = None
        for node in decomposition.nodes():
            if edge <= node.bag:
                target = node
                break
        if target is None:
            raise DecompositionError(
                f"decomposition does not cover edge {edge_name!r}; cannot build a join tree"
            )
        assignment.setdefault(id(target), set()).add(edge_name)

    def convert(node) -> JoinTreeNode:
        return JoinTreeNode(
            variables=node.bag,
            cover_edges=node.cover,
            assigned_edges=frozenset(assignment.get(id(node), set())),
            children=tuple(map(convert, node.children)),
        )

    tree = JoinTree(hypergraph, convert(decomposition.root))
    return tree
