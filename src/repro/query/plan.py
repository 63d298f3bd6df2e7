"""Query plans: join trees compiled into explicit operator programs.

A tuple-at-a-time Yannakakis pipeline (the test oracle in
``tests/oracles/eager.py``) interleaves *deciding* what to do (walking the
join tree, intersecting schemas, choosing projections) with *doing* it
(building tuple sets).  This module separates the two: a
:class:`QueryPlan` is the complete, immutable operator program derived from a
join tree —

1. :class:`BagOp` steps materialise one relation per decomposition node by
   joining the ≤ k atoms of the node's λ-cover, projecting onto the bag and
   semijoin-filtering with the atoms assigned to the node that are not
   cover atoms (a cover atom cannot reject a row of its own join),
2. :class:`SemijoinOp` steps run Yannakakis' bottom-up and top-down semijoin
   passes (the full reduction),
3. :class:`JoinOp` steps assemble the answers bottom-up, each naming the
   columns it writes: only output variables plus those still needed higher up.

Because every schema intersection, projection list and semijoin key is
resolved at compile time, the program can be cached and re-run against any
database, and an executor (:mod:`repro.query.columnar`) can precompute which
hash indexes the semijoin/join keys need and share them across steps.

Plans carry an :class:`AnswerMode`:

* ``ENUMERATE`` — produce the full answer relation,
* ``BOOLEAN`` — decide non-emptiness; the compiled program stops after the
  bottom-up semijoin pass (a surviving root tuple proves the answer), and
  executors may exit even earlier when a bag comes out empty,
* ``COUNT`` — count distinct answers without decoding them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..decomp.jointree import JoinTree
from ..exceptions import DecompositionError, QueryError
from ..hypergraph.cq import ConjunctiveQuery

__all__ = [
    "EXECUTORS",
    "check_executor",
    "AnswerMode",
    "AtomBinding",
    "BagOp",
    "SemijoinOp",
    "JoinOp",
    "ProjectOp",
    "QueryPlan",
    "compile_plan",
]


#: The execution arms a compiled plan runs on (:mod:`repro.query.columnar`,
#: :mod:`repro.query.sqlgen`).
EXECUTORS = ("columnar", "sql")


def check_executor(executor: str) -> str:
    """Return ``executor`` if it names an execution arm, else raise."""
    if executor not in EXECUTORS:
        raise QueryError(
            f"unknown executor {executor!r}; known: {', '.join(EXECUTORS)}"
        )
    return executor


class AnswerMode(str, Enum):
    """What the executor should produce for a query."""

    ENUMERATE = "enumerate"
    BOOLEAN = "boolean"
    COUNT = "count"

    @classmethod
    def coerce(cls, mode: "AnswerMode | str") -> "AnswerMode":
        """Accept an :class:`AnswerMode` or its string value."""
        if isinstance(mode, cls):
            return mode
        try:
            return cls(mode)
        except ValueError:
            known = ", ".join(m.value for m in cls)
            raise QueryError(f"unknown answer mode {mode!r}; known: {known}") from None

    @property
    def is_interactive(self) -> bool:
        """Scheduling hint: whether answers are small scalar payloads.

        Boolean and count answers are a yes/no or a number a client is
        actively waiting on; full enumeration materialises an answer
        relation and is bulk work.  The serving layer maps this onto its
        priority classes.
        """
        return self is not AnswerMode.ENUMERATE


@dataclass(frozen=True)
class AtomBinding:
    """One query atom resolved for execution.

    ``variables`` lists the distinct variables in first-occurrence order;
    ``arguments`` is the raw (possibly repeating) argument tuple used to
    enforce equality of repeated variables when the base relation is loaded.
    """

    edge: str
    relation: str
    arguments: tuple[str, ...]
    variables: tuple[str, ...]

    @property
    def has_repeats(self) -> bool:
        """True iff some variable occurs more than once in the atom."""
        return len(self.variables) != len(self.arguments)


@dataclass(frozen=True)
class BagOp:
    """Materialise the relation of decomposition node ``node``.

    Join the atoms in ``cover`` (indices into :attr:`QueryPlan.atoms`),
    project onto ``variables`` (the bag χ), then semijoin with each atom in
    ``filters``.  ``assigned`` lists the atoms the join tree assigns to the
    node (every atom sits in exactly one bag's ``assigned``); ``filters`` is
    its subsequence of non-cover atoms — the only filters that can reject a
    row, since every row of the cover join is its own witness in a cover atom.
    """

    node: int
    cover: tuple[int, ...]
    assigned: tuple[int, ...]
    filters: tuple[int, ...]
    variables: tuple[str, ...]


@dataclass(frozen=True)
class SemijoinOp:
    """Keep the ``target`` node's tuples that join with ``source`` on ``on``."""

    target: int
    source: int
    on: tuple[str, ...]


@dataclass(frozen=True)
class JoinOp:
    """Join child ``source``'s intermediate result (projected onto ``retain``)
    into parent ``target``'s, writing ``schema``: the node's columns plus the
    child's new ones, or for the last join into a node exactly what its
    consumer reads (the parent's ``retain`` for it, at the root the output)."""

    target: int
    source: int
    retain: tuple[str, ...]
    schema: tuple[str, ...]


@dataclass(frozen=True)
class ProjectOp:
    """Project root ``node``, which has no children, onto ``attributes``."""

    node: int
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class QueryPlan:
    """A compiled, database-independent operator program for one query.

    The plan references atoms by index into :attr:`atoms` and decomposition
    nodes by their pre-order id (the root is node 0), so it is entirely
    self-contained: executing it needs only a database providing the named
    base relations.
    """

    mode: AnswerMode
    output: tuple[str, ...]
    atoms: tuple[AtomBinding, ...]
    num_nodes: int
    bags: tuple[BagOp, ...]
    bottom_up: tuple[SemijoinOp, ...]
    top_down: tuple[SemijoinOp, ...]
    join_schedule: tuple[JoinOp | ProjectOp, ...]
    node_variables: tuple[tuple[str, ...], ...]
    width: int
    children: tuple[tuple[int, ...], ...] = field(default=(), repr=False)

    def describe(self) -> str:
        """Human-readable rendering of the operator program."""
        lines = [f"plan mode={self.mode.value} output=({', '.join(self.output)})"]
        for bag in self.bags:
            cover = ", ".join(self.atoms[i].edge for i in bag.cover)
            line = f"  bag[{bag.node}] = π_{{{', '.join(bag.variables)}}}({cover})"
            if bag.filters:
                line += f" ⋉ {', '.join(self.atoms[i].edge for i in bag.filters)}"
            lines.append(line)
        for op in self.bottom_up:
            lines.append(f"  bag[{op.target}] ⋉= bag[{op.source}] on ({', '.join(op.on)})")
        for op in self.top_down:
            lines.append(f"  bag[{op.target}] ⋉= bag[{op.source}] on ({', '.join(op.on)})")
        for op in self.join_schedule:
            if isinstance(op, JoinOp):
                lines.append(
                    f"  res[{op.target}] = π_{{{', '.join(op.schema)}}}(res[{op.target}] ⋈ "
                    f"π_{{{', '.join(op.retain)}}}(res[{op.source}]))"
                )
            else:
                lines.append(f"  res[{op.node}] = π_{{{', '.join(op.attributes)}}}(res[{op.node}])")
        return "\n".join(lines)


def _atom_bindings(query: ConjunctiveQuery) -> tuple[tuple[AtomBinding, ...], dict[str, int]]:
    bindings: list[AtomBinding] = []
    index_of: dict[str, int] = {}
    for edge_name, atom in query.edge_atom_map().items():
        index_of[edge_name] = len(bindings)
        bindings.append(
            AtomBinding(
                edge=edge_name,
                relation=atom.relation,
                arguments=tuple(atom.arguments),
                variables=tuple(dict.fromkeys(atom.arguments)),
            )
        )
    return tuple(bindings), index_of


def compile_plan(
    query: ConjunctiveQuery,
    join_tree: JoinTree,
    mode: AnswerMode | str = AnswerMode.ENUMERATE,
) -> QueryPlan:
    """Compile ``join_tree`` into an executable :class:`QueryPlan`.

    The program mirrors the eager oracle of ``tests/oracles/eager.py``
    exactly (bag materialisation, the two semijoin passes, the projecting
    bottom-up join of its ``yannakakis``), so plan-compiled evaluation is
    answer-for-answer identical to the reference path.  For ``BOOLEAN``
    plans the top-down pass and the join schedule are omitted: after the
    bottom-up pass the root is non-empty iff the query holds.  A tree that
    fails :meth:`~repro.decomp.jointree.JoinTree.validate` or binds a bag
    variable its λ-label does not cover raises :class:`QueryError`.
    """
    mode = AnswerMode.coerce(mode)
    try:
        join_tree.validate()
    except DecompositionError as error:
        raise QueryError(f"invalid join tree: {error}") from None
    atoms, atom_index = _atom_bindings(query)
    output = tuple(dict.fromkeys(query.free_variables))

    nodes, _parent, children = join_tree.numbered()
    node_variables = tuple(tuple(sorted(node.variables)) for node in nodes)
    missing = [v for v in output if not any(v in node.variables for node in nodes)]
    if missing:
        raise QueryError(f"output variables {missing} do not occur in the join tree")

    bags: list[BagOp] = []
    for node_id, node in enumerate(nodes):
        cover = tuple(atom_index[name] for name in sorted(node.cover_edges))
        if not cover:
            raise QueryError(
                "decomposition node with an empty λ-label cannot be materialised"
            )
        covered = {v for i in cover for v in atoms[i].variables}
        missing = [v for v in node_variables[node_id] if v not in covered]
        if missing:
            raise QueryError(
                f"bag variables {missing} are not covered by the node's λ-label"
            )
        assigned = tuple(atom_index[name] for name in sorted(node.assigned_edges))
        filters = tuple(i for i in assigned if i not in cover)
        bags.append(BagOp(node_id, cover, assigned, filters, node_variables[node_id]))

    def shared(a: int, b: int) -> tuple[str, ...]:
        other = set(node_variables[b])
        return tuple(v for v in node_variables[a] if v in other)

    bottom_up: list[SemijoinOp] = []

    def emit_bottom_up(node_id: int) -> None:
        for child_id in children[node_id]:
            emit_bottom_up(child_id)
            bottom_up.append(
                SemijoinOp(target=node_id, source=child_id, on=shared(node_id, child_id))
            )

    emit_bottom_up(0)

    top_down: list[SemijoinOp] = []
    join_schedule: list[JoinOp | ProjectOp] = []

    if mode is not AnswerMode.BOOLEAN:

        def emit_top_down(node_id: int) -> None:
            for child_id in children[node_id]:
                top_down.append(
                    SemijoinOp(target=child_id, source=node_id, on=shared(node_id, child_id))
                )
                emit_top_down(child_id)

        emit_top_down(0)

        keep = frozenset(output)

        def emit_joins(node_id: int, needed: frozenset[str] | None) -> tuple[str, ...]:
            """Emit the joins into ``node_id``; return what its consumer reads:
            its columns in ``needed`` (the parent's), or the output at the root.
            The oracle's ``_joined_projection``, schemas only."""
            current = list(node_variables[node_id])
            own = keep.union(current)

            def reads() -> tuple[str, ...]:
                return output if needed is None else tuple(a for a in current if a in needed)

            for child_id in children[node_id]:
                retain = emit_joins(child_id, own)
                current += [a for a in retain if a not in current]
                schema = reads() if child_id == children[node_id][-1] else tuple(current)
                join_schedule.append(JoinOp(node_id, child_id, retain, schema))
            return reads()

        emit_joins(0, None)
        if not children[0] and set(output) != set(node_variables[0]):
            # A root without children projects onto the output variables when
            # that drops a column (the 0-ary projection for a Boolean-shaped
            # query); executors read the output columns by name.
            join_schedule.append(ProjectOp(node=0, attributes=output))

    return QueryPlan(
        mode=mode,
        output=output,
        atoms=atoms,
        num_nodes=len(nodes),
        bags=tuple(bags),
        bottom_up=tuple(bottom_up),
        top_down=tuple(top_down),
        join_schedule=tuple(join_schedule),
        node_variables=node_variables,
        width=join_tree.width,
        children=tuple(tuple(c) for c in children),
    )
