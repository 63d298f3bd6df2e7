"""A minimal relation catalogue used by the CQ/CSP evaluation substrate."""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping

from ..exceptions import QueryError
from ..hypergraph.cq import ConjunctiveQuery
from .relation import Relation

__all__ = ["Database", "random_database_for_query"]


class Database:
    """A named collection of :class:`~repro.query.relation.Relation` objects."""

    #: A source whose content can change under a store overrides this with
    #: a method returning its current data version; None: it never changes.
    _data_version = None

    def __init__(self, relations: Iterable[Relation] = ()) -> None:
        self._relations: dict[str, Relation] = {}
        for relation in relations:
            self.add(relation)

    def add(self, relation: Relation) -> None:
        """Register a relation; duplicate names are rejected."""
        if relation.name in self._relations:
            raise QueryError(f"duplicate relation name {relation.name!r}")
        self._relations[relation.name] = relation

    def get(self, name: str) -> Relation:
        """Look up a relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise QueryError(f"unknown relation {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __len__(self) -> int:
        return len(self._relations)

    def relation_names(self) -> list[str]:
        """All registered relation names."""
        return sorted(self._relations)


def random_database_for_query(
    query: ConjunctiveQuery,
    domain_size: int = 6,
    tuples_per_relation: int = 20,
    seed: int = 0,
    domains: Mapping[str, Iterable[object]] | None = None,
) -> Database:
    """Generate a random database matching the atoms of ``query``.

    Each atom receives a relation named like the atom's relation symbol with
    random tuples over a shared integer domain.  Deterministic for a fixed
    seed — used by the examples and the end-to-end tests of Yannakakis.
    """
    rng = random.Random(seed)
    database = Database()
    domain = list(range(domain_size))
    seen: set[str] = set()
    for atom in query.atoms:
        if atom.relation in seen:
            continue
        seen.add(atom.relation)
        schema = [f"a{i}" for i in range(len(atom.arguments))]
        rows = set()
        for _ in range(tuples_per_relation):
            if domains is not None:
                row = tuple(
                    rng.choice(list(domains.get(var, domain)))
                    for var in atom.arguments
                )
            else:
                row = tuple(rng.choice(domain) for _ in atom.arguments)
            rows.add(row)
        database.add(Relation(atom.relation, schema, rows))
    return database
