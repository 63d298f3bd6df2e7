"""Conjunctive queries, CSPs and their hypergraph abstraction.

The paper (Section 2) treats conjunctive queries (CQs) and constraint
satisfaction problems (CSPs) uniformly: both are given by an {∃, ∧}-formula
and are abstracted to the hypergraph whose vertices are the variables and
whose edges are the variable scopes of the atoms.

This module provides lightweight query/CSP objects plus the abstraction
function.  The full evaluation machinery (relations, joins, Yannakakis) lives
in :mod:`repro.query`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from collections.abc import Mapping

from ..exceptions import ParseError, QueryError
from .hypergraph import Hypergraph

__all__ = ["Atom", "ConjunctiveQuery", "CSPInstance", "parse_conjunctive_query"]


@dataclass(frozen=True)
class Atom:
    """A relational atom ``relation(arguments)`` of a conjunctive query."""

    relation: str
    arguments: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.arguments:
            raise QueryError(f"atom {self.relation!r} has no arguments")

    @property
    def variables(self) -> frozenset[str]:
        """The set of variables occurring in the atom."""
        return frozenset(self.arguments)

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(self.arguments)})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query: a conjunction of atoms with free (output) variables."""

    atoms: tuple[Atom, ...]
    free_variables: tuple[str, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if not self.atoms:
            raise QueryError("a conjunctive query needs at least one atom")
        all_vars = self.variables
        unknown = [v for v in self.free_variables if v not in all_vars]
        if unknown:
            raise QueryError(f"free variables {unknown} do not occur in any atom")

    @property
    def variables(self) -> frozenset[str]:
        """All variables occurring in the query."""
        result: set[str] = set()
        for atom in self.atoms:
            result.update(atom.arguments)
        return frozenset(result)

    def edge_atom_map(self) -> dict[str, Atom]:
        """Map hypergraph edge names to the atoms they abstract.

        Each atom contributes one edge whose vertices are the atom's variables;
        atoms over the same relation are distinguished by position.  This map
        is shared by :meth:`hypergraph` and the HD-guided evaluator so that
        edge names always resolve to the same atoms.
        """
        mapping: dict[str, Atom] = {}
        for index, atom in enumerate(self.atoms):
            edge_name = atom.relation
            if edge_name in mapping:
                edge_name = f"{atom.relation}#{index}"
            mapping[edge_name] = atom
        return mapping

    def hypergraph(self) -> Hypergraph:
        """The hypergraph abstraction H_phi of the query."""
        edges = {
            edge_name: atom.variables
            for edge_name, atom in self.edge_atom_map().items()
        }
        return Hypergraph(edges, name=self.name or "cq")

    def __str__(self) -> str:
        head = f"ans({', '.join(self.free_variables)})"
        body = " ∧ ".join(str(atom) for atom in self.atoms)
        return f"{head} :- {body}"


@dataclass(frozen=True)
class CSPInstance:
    """A CSP instance: variables with domains and constraints over variable scopes.

    Constraint relations are tuples of allowed assignments (positive table
    constraints), which is the representation the HD-guided solver in
    :mod:`repro.query.csp` consumes.
    """

    domains: Mapping[str, tuple] = field(default_factory=dict)
    constraints: tuple[tuple[str, tuple[str, ...], tuple[tuple, ...]], ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        for cname, scope, tuples in self.constraints:
            if not scope:
                raise QueryError(f"constraint {cname!r} has an empty scope")
            for row in tuples:
                if len(row) != len(scope):
                    raise QueryError(
                        f"constraint {cname!r}: tuple arity {len(row)} does not "
                        f"match scope arity {len(scope)}"
                    )

    @property
    def variables(self) -> frozenset[str]:
        """All variables occurring in some constraint scope or domain."""
        result = set(self.domains)
        for _, scope, _ in self.constraints:
            result.update(scope)
        return frozenset(result)

    def hypergraph(self) -> Hypergraph:
        """The hypergraph abstraction: one edge per constraint scope."""
        edges: dict[str, frozenset[str]] = {}
        for index, (cname, scope, _) in enumerate(self.constraints):
            edge_name = cname if cname not in edges else f"{cname}#{index}"
            edges[edge_name] = frozenset(scope)
        if not edges:
            raise QueryError("CSP instance has no constraints")
        return Hypergraph(edges, name=self.name or "csp")


_ATOM_RE = re.compile(r"([A-Za-z0-9_]+)\s*\(([^()]*)\)")


def parse_conjunctive_query(text: str, name: str = "") -> ConjunctiveQuery:
    """Parse a conjunctive query of the form ``ans(x,y) :- r(x,z), s(z,y).``

    The head is optional; without it the query is Boolean.
    """
    text = text.strip().rstrip(".")
    if not text:
        raise ParseError("empty query")
    free: tuple[str, ...] = ()
    body = text
    if ":-" in text:
        head, body = text.split(":-", 1)
        match = _ATOM_RE.search(head)
        if match is None:
            raise ParseError(f"cannot parse query head {head!r}")
        free = tuple(v.strip() for v in match.group(2).split(",") if v.strip())
    atoms = []
    for match in _ATOM_RE.finditer(body):
        arguments = tuple(v.strip() for v in match.group(2).split(",") if v.strip())
        atoms.append(Atom(match.group(1), arguments))
    if not atoms:
        raise ParseError(f"no atoms found in query body {body!r}")
    return ConjunctiveQuery(tuple(atoms), free, name=name)
