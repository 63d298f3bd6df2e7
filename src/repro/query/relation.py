"""In-memory relations for the query-evaluation substrate.

The paper motivates hypertree decompositions with conjunctive query
evaluation: a width-k HD reduces a CQ to an acyclic instance which
Yannakakis' algorithm evaluates in polynomial time.  To demonstrate (and
test) that pipeline end to end, this module provides a small relational
layer: a :class:`Relation` is a named set of tuples over a schema of
attribute names, supporting projection, selection, natural join and
semijoin — everything the Yannakakis implementation needs.

A relation is an immutable value: its tuples are a ``frozenset`` and its
attributes cannot be rebound, so one relation may be shared by any number
of holders (the columnar executor hands the same answer to every recycled
execution of a plan) and an operator may return its input's tuples as they
are.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import FrozenInstanceError

from ..exceptions import QueryError

__all__ = ["Relation"]


class Relation:
    """A named relation: a schema (attribute names) plus a frozen set of tuples.

    Immutable: ``tuples`` is a ``frozenset`` and rebinding any attribute
    raises :class:`~dataclasses.FrozenInstanceError`.
    """

    __slots__ = ("name", "schema", "tuples", "_columns")

    name: str
    schema: tuple[str, ...]
    tuples: frozenset[tuple[object, ...]]

    def __init__(
        self,
        name: str,
        schema: Sequence[str],
        tuples: Iterable[Sequence[object]] = (),
    ) -> None:
        schema = tuple(schema)
        if len(set(schema)) != len(schema):
            raise QueryError(f"relation {name!r} has duplicate attributes")

        def conforming():
            for row in tuples:
                row = tuple(row)
                if len(row) != len(schema):
                    raise QueryError(
                        f"relation {name!r}: tuple {row!r} does not match the "
                        f"{len(schema)}-attribute schema"
                    )
                yield row

        self._freeze(name, schema, frozenset(conforming()))

    def _freeze(self, name: str, schema: tuple[str, ...], rows: frozenset) -> None:
        set_field = object.__setattr__
        set_field(self, "name", name)
        set_field(self, "schema", schema)
        set_field(self, "tuples", rows)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Relation.from_trusted_rows, (self.name, self.schema, self.tuples)

    @property
    def columns(self) -> tuple[tuple[object, ...], ...]:
        """The tuples by attribute: one tuple of values per schema position,
        the rows in one shared order.  Built on first use and kept, so a
        shared answer is transposed once however often it is encoded; two
        threads that race to build it store equal views."""
        try:
            return self._columns
        except AttributeError:
            columns = tuple(zip(*self.tuples)) or ((),) * len(self.schema)
            object.__setattr__(self, "_columns", columns)
            return columns

    # ------------------------------------------------------------------ #
    # basics
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __contains__(self, row: object) -> bool:
        return tuple(row) in self.tuples  # type: ignore[arg-type]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.as_dicts() == other.as_dicts()

    def __repr__(self) -> str:
        return f"<Relation {self.name!r}({', '.join(self.schema)}) |{len(self)}| >"

    def as_dicts(self) -> set[frozenset[tuple[str, object]]]:
        """The tuples as attribute → value mappings (order independent)."""
        return {
            frozenset(zip(self.schema, row)) for row in self.tuples
        }

    def attribute_index(self, attribute: str) -> int:
        """Position of ``attribute`` in the schema."""
        try:
            return self.schema.index(attribute)
        except ValueError:
            raise QueryError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from None

    # ------------------------------------------------------------------ #
    # relational operators
    # ------------------------------------------------------------------ #
    def project(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """Projection onto the given attributes (duplicates removed)."""
        positions = [self.attribute_index(a) for a in attributes]
        rows = (tuple(row[p] for p in positions) for row in self.tuples)
        return Relation(name or f"π({self.name})", attributes, rows)

    def rename(self, mapping: dict[str, str], name: str | None = None) -> "Relation":
        """Rename attributes according to ``mapping`` (missing keys unchanged)."""
        schema = tuple(mapping.get(a, a) for a in self.schema)
        if len(set(schema)) != len(schema):
            raise QueryError(f"relation {name or self.name!r} has duplicate attributes")
        return Relation.from_trusted_rows(name or self.name, schema, self.tuples)

    def natural_join(self, other: "Relation", name: str | None = None) -> "Relation":
        """Natural join on the shared attributes (hash join)."""
        shared = [a for a in self.schema if a in other.schema]
        own_extra = [a for a in self.schema if a not in shared]
        other_extra = [a for a in other.schema if a not in shared]
        schema = tuple(shared + own_extra + other_extra)

        own_pos = [self.attribute_index(a) for a in shared + own_extra]
        other_shared_pos = [other.attribute_index(a) for a in shared]
        other_extra_pos = [other.attribute_index(a) for a in other_extra]

        index: dict[tuple, list[tuple]] = {}
        for row in other.tuples:
            key = tuple(row[p] for p in other_shared_pos)
            index.setdefault(key, []).append(tuple(row[p] for p in other_extra_pos))

        # A head is a row's shared values followed by its own extras.
        heads = (tuple(row[p] for p in own_pos) for row in self.tuples)
        rows = frozenset(
            head + extra for head in heads for extra in index.get(head[: len(shared)], ())
        )
        return Relation.from_trusted_rows(name or f"({self.name}⋈{other.name})", schema, rows)

    def semijoin(self, other: "Relation", name: str | None = None) -> "Relation":
        """Semijoin: keep the tuples that join with at least one tuple of ``other``."""
        shared = [a for a in self.schema if a in other.schema]
        if not shared:
            # Both relations are immutable, so the result shares the tuples.
            rows = self.tuples if len(other) else frozenset()
            return Relation.from_trusted_rows(name or self.name, self.schema, rows)
        own_pos = [self.attribute_index(a) for a in shared]
        other_pos = [other.attribute_index(a) for a in shared]
        keys = {tuple(row[p] for p in other_pos) for row in other.tuples}
        rows = frozenset(row for row in self.tuples if tuple(row[p] for p in own_pos) in keys)
        return Relation.from_trusted_rows(name or self.name, self.schema, rows)

    @classmethod
    def from_trusted_rows(
        cls, name: str, schema: Sequence[str], rows: frozenset[tuple[object, ...]]
    ) -> "Relation":
        """Adopt a frozenset of schema-conformant tuples without copying.

        Fast path for internal producers (the executors and the codec build
        their rows straight into a frozenset); the caller
        guarantees every tuple matches the schema arity.  Any other
        collection is frozen first, so the relation stays immutable.
        """
        if type(rows) is not frozenset:
            rows = frozenset(rows)
        relation = cls.__new__(cls)
        relation._freeze(name, tuple(schema), rows)
        return relation
