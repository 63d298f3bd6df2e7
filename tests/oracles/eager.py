"""The eager, tuple-at-a-time CQ evaluation pipeline: bags, then Yannakakis.

This is ``repro.query.yannakakis`` and ``repro.query.cq_eval.materialise_bags``,
the pipeline the library shipped as ``executor="eager"`` before the
plan-compiled executors superseded it, moved here verbatim.  It shares
nothing with the plan compiler it referees: :func:`evaluate_eager` goes from
the decomposition's join tree straight to :class:`~repro.query.Relation`
operators, and both executors must return its answers byte for byte.

Given a join tree whose nodes carry materialised relations (one per bag),
Yannakakis' algorithm evaluates the corresponding acyclic join in polynomial
time:

1. a bottom-up semijoin pass removes tuples that cannot join with any tuple
   of a descendant,
2. a top-down semijoin pass removes tuples that cannot join with the parent
   (after this *full reduction* every remaining tuple participates in at
   least one answer),
3. a bottom-up join pass assembles the answers, projecting intermediate
   results onto the output variables plus the variables still needed higher
   up — which keeps intermediate results polynomial.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.width import hypertree_width
from repro.decomp.jointree import JoinTree, join_tree_from_decomposition
from repro.exceptions import QueryError
from repro.hypergraph.cq import Atom, ConjunctiveQuery
from repro.query.database import Database
from repro.query.joins import atom_relation, join_all
from repro.query.relation import Relation


@dataclass
class AnnotatedNode:
    """A join-tree node annotated with its materialised bag relation."""

    relation: Relation
    children: list["AnnotatedNode"] = field(default_factory=list)

    def nodes(self) -> list["AnnotatedNode"]:
        """All nodes of the subtree in pre-order."""
        result = [self]
        for child in self.children:
            result.extend(child.nodes())
        return result


def full_reduce(root: AnnotatedNode) -> AnnotatedNode:
    """Run the bottom-up and top-down semijoin passes in place; return ``root``."""
    _bottom_up(root)
    _top_down(root)
    return root


def _bottom_up(node: AnnotatedNode) -> None:
    for child in node.children:
        _bottom_up(child)
        node.relation = node.relation.semijoin(child.relation)


def _top_down(node: AnnotatedNode) -> None:
    for child in node.children:
        child.relation = child.relation.semijoin(node.relation)
        _top_down(child)


def semijoin_pass_count(root: AnnotatedNode) -> int:
    """Number of semijoins a full reduction performs (2 per tree edge)."""
    return 2 * (len(root.nodes()) - 1)


def yannakakis(root: AnnotatedNode, output_variables: Sequence[str]) -> Relation:
    """Evaluate the acyclic join described by the annotated tree.

    Returns the relation over ``output_variables``; for a Boolean query
    (empty output) the result is a 0-ary relation that is non-empty iff the
    join is non-empty.
    """
    output = list(dict.fromkeys(output_variables))
    all_variables: set[str] = set()
    for node in root.nodes():
        all_variables.update(node.relation.schema)
    missing = [v for v in output if v not in all_variables]
    if missing:
        raise QueryError(f"output variables {missing} do not occur in the join tree")

    full_reduce(root)
    if any(not node.relation.tuples for node in root.nodes()):
        return Relation("answer", tuple(output), set())

    joined = _joined_projection(root, frozenset(output))
    if not output:
        rows = {()} if len(joined) else set()
        return Relation("answer", (), rows)
    return joined.project(output, name="answer")


def _joined_projection(node: AnnotatedNode, keep: frozenset[str]) -> Relation:
    """Bottom-up join keeping only output variables and connecting variables."""
    current = node.relation
    for child in node.children:
        child_needed = keep | set(node.relation.schema)
        child_result = _joined_projection(child, keep)
        retained = [a for a in child_result.schema if a in child_needed]
        current = current.natural_join(child_result.project(retained))
    # Project onto what the ancestors may still need plus the output.
    wanted = [a for a in current.schema if a in keep or a in node.relation.schema]
    return current.project(wanted)


def materialise_bags(
    join_tree: JoinTree,
    database: Database,
    edge_atoms: dict[str, Atom],
) -> AnnotatedNode:
    """Materialise one relation per join-tree node (the eager reference arm).

    The node relation is the join of the λ-cover atoms projected onto the bag
    variables, semijoin-filtered by every atom *assigned* to the node (atoms
    whose variables the bag covers but which are not part of the cover).
    """

    def build(node) -> AnnotatedNode:
        cover_atoms = [edge_atoms[name] for name in sorted(node.cover_edges)]
        if not cover_atoms:
            raise QueryError("decomposition node with an empty λ-label cannot be materialised")
        cover_relations = [atom_relation(database, atom) for atom in cover_atoms]
        joined = join_all(cover_relations, name="bag")
        bag_variables = [v for v in joined.schema if v in node.variables]
        bag_relation = joined.project(bag_variables, name="bag")
        for edge_name in sorted(node.assigned_edges):
            atom = edge_atoms[edge_name]
            bag_relation = bag_relation.semijoin(atom_relation(database, atom))
        return AnnotatedNode(
            relation=bag_relation,
            children=[build(child) for child in node.children],
        )

    return build(join_tree.root)


def evaluate_eager(query: ConjunctiveQuery, database: Database) -> Relation:
    """The answers of ``query`` over ``database`` by the eager pipeline."""
    width, decomposition = hypertree_width(query.hypergraph())
    if decomposition is None:
        raise QueryError("no hypertree decomposition found for the query")
    join_tree = join_tree_from_decomposition(decomposition)
    join_tree.validate()
    annotated = materialise_bags(join_tree, database, query.edge_atom_map())
    return yannakakis(annotated, list(query.free_variables))
