"""One counters mechanism: a ``@dataclass`` record inheriting :class:`Counters` gets
``merge``, ``as_dict`` and ``from_dict`` from its field declarations.  The merge rule
follows from a field's default (numbers add, ``bool`` ors, a dict of numbers adds key-wise,
a nested :class:`Counters` merges recursively) or is named in the declaration,
``field(default=0, metadata={"merge": max})``; a field with neither raises on first use.
"""

from __future__ import annotations

import operator
from dataclasses import fields
from functools import cache

from .exceptions import ParseError


def _add_keys(into: dict, other: dict) -> dict:
    for key, value in other.items():
        into[key] = into.get(key, 0) + value
    return into


def _numbers(payload: dict) -> dict:
    if not all(type(k) is str and type(v) in (int, float) for k, v in payload.items()):
        raise ParseError(f"expected a dict of numbers, got {payload!r}")
    return dict(payload)


_KINDS = {
    bool: (operator.or_, (bool,), None, None),
    int: (operator.add, (int,), None, None),
    float: (operator.add, (int, float), None, None),
    dict: (_add_keys, (dict,), dict, _numbers),
}


@cache
def _plan(cls) -> dict[str, tuple]:
    """``{field: (merge rule, wire types, copy out, copy in)}`` off the zero instance's values."""
    zero, plan = cls(), {}
    for spec in fields(cls):
        kind = type(getattr(zero, spec.name))
        entry = _KINDS.get(kind, (None, (kind,), None, None))
        if issubclass(kind, Counters):
            entry = (lambda a, b: a.merge(b) or a, (dict,), kind.as_dict, kind.from_dict)
        rule = spec.metadata.get("merge", entry[0])
        if rule is None:
            raise TypeError(f"{cls.__name__}.{spec.name}: a {kind.__name__} needs a merge rule")
        plan[spec.name] = (rule, *entry[1:])
    return plan


class Counters:
    """Mixin for ``@dataclass`` records whose every field has a default; methods only."""

    def merge(self, other) -> None:
        """Accumulate ``other`` into this record, field by field."""
        for name, (rule, _, _, _) in _plan(type(self)).items():
            setattr(self, name, rule(getattr(self, name), getattr(other, name)))

    def as_dict(self) -> dict:
        """A JSON-friendly copy in field order, sharing nothing mutable."""
        return {
            name: encode(getattr(self, name)) if encode else getattr(self, name)
            for name, (_, _, encode, _) in _plan(type(self)).items()
        }

    @classmethod
    def from_dict(cls, payload: dict):
        """Rebuild :meth:`as_dict` output; unknown keys are ignored, a wrong type raises."""
        if type(payload) is not dict:
            raise ParseError(f"{cls.__name__}: expected a dict, got {payload!r}")
        plan, known = _plan(cls), {}
        for name, value in payload.items():
            if name in plan:
                _, wire, _, decode = plan[name]
                if type(value) not in wire:
                    raise ParseError(f"{cls.__name__}.{name}: not {wire[-1].__name__}: {value!r}")
                known[name] = decode(value) if decode else value
        return cls(**known)
