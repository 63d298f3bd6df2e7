"""Declarative registry of decomposition algorithms.

Every entry point of the library (the :func:`repro.decompose` facade, the
benchmark harness, the CLI, the query layer) builds algorithms from this
single declarative catalogue:

    from repro.pipeline import registry

    registry.register("my-algo", factory=MyDecomposer, description="...")
    decomposer = registry.build("my-algo", timeout=2.0)
    registry.available()          # canonical names
    registry.describe()           # (name, aliases, description) rows

Built-in algorithms are registered *lazily* — the entry stores the module
path and class name, and the class is imported on first :func:`build` — so
this module has no import-time dependency on :mod:`repro.core` (which itself
imports the registry; eager imports would cycle).

Names are case-sensitive.  Each entry may carry aliases; the algorithm's
public :attr:`~repro.core.base.Decomposer.name` (e.g. ``"log-k-decomp"``)
is an alias of its short registry name (e.g. ``"logk"``).

The registry builds; it does not decide *configuration identity*.  That
is :meth:`~repro.core.base.Decomposer.cache_key` of the built decomposer:
the engine's result cache, the catalog's ``configuration`` column, the
query layer's plan and SQL-program caches and the serving layer's
in-flight deduplication table all key on it, so two callers asking for
the same algorithm under different spellings, or with an option spelled
out at its default, coalesce onto one computation.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from collections.abc import Callable, Iterable

from ..exceptions import SolverError

__all__ = [
    "AlgorithmEntry",
    "DecomposerRegistry",
    "registry",
    "register",
    "build",
    "available",
    "describe",
    "resolve",
]


@dataclass
class AlgorithmEntry:
    """One registered algorithm: a factory (possibly lazy) plus metadata."""

    name: str
    description: str = ""
    aliases: tuple[str, ...] = ()
    factory: Callable | None = None
    module: str | None = None
    class_name: str | None = None

    def load(self) -> Callable:
        """Return the factory, importing the implementing class if lazy."""
        if self.factory is None:
            assert self.module is not None and self.class_name is not None
            self.factory = getattr(
                importlib.import_module(self.module), self.class_name
            )
        return self.factory


class DecomposerRegistry:
    """Name → factory catalogue with aliases and metadata."""

    def __init__(self) -> None:
        self._entries: dict[str, AlgorithmEntry] = {}
        self._aliases: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        factory: Callable | None = None,
        *,
        module: str | None = None,
        class_name: str | None = None,
        description: str = "",
        aliases: Iterable[str] = (),
        overwrite: bool = False,
    ) -> AlgorithmEntry:
        """Register an algorithm under ``name``.

        Either ``factory`` (any callable returning a decomposer) or the pair
        ``module``/``class_name`` (imported lazily on first build) must be
        given.  Re-registering an existing name raises unless
        ``overwrite=True``.
        """
        if factory is None and (module is None or class_name is None):
            raise SolverError(
                f"registering {name!r} requires a factory or module/class_name"
            )
        aliases = tuple(aliases)
        for candidate in (name, *aliases):
            taken = self._resolve(candidate)
            if taken is not None and taken != name and not overwrite:
                raise SolverError(
                    f"algorithm name {candidate!r} is already registered (for {taken!r})"
                )
        if name in self._entries:
            if not overwrite:
                raise SolverError(f"algorithm {name!r} is already registered")
            # Drop the replaced entry's aliases so none dangle.
            for alias in self._entries[name].aliases:
                self._aliases.pop(alias, None)
        entry = AlgorithmEntry(
            name=name,
            factory=factory,
            module=module,
            class_name=class_name,
            description=description,
            aliases=aliases,
        )
        self._entries[name] = entry
        for alias in aliases:
            self._aliases[alias] = name
        return entry

    def unregister(self, name: str) -> None:
        """Remove an algorithm and its aliases (mostly for tests)."""
        canonical = self.resolve(name)
        entry = self._entries.pop(canonical)
        for alias in entry.aliases:
            self._aliases.pop(alias, None)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def _resolve(self, name: str) -> str | None:
        if name in self._entries:
            return name
        return self._aliases.get(name)

    def resolve(self, name: str) -> str:
        """Canonical name for ``name`` (which may be an alias)."""
        canonical = self._resolve(name)
        if canonical is None:
            known = ", ".join(sorted(self._entries))
            raise SolverError(f"unknown algorithm {name!r}; known: {known}")
        return canonical

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self._resolve(name) is not None

    def entry(self, name: str) -> AlgorithmEntry:
        """The :class:`AlgorithmEntry` registered under ``name`` or an alias."""
        return self._entries[self.resolve(name)]

    def build(self, name: str, **options):
        """Instantiate the algorithm registered under ``name`` with ``options``."""
        return self.entry(name).load()(**options)

    def available(self) -> list[str]:
        """Canonical algorithm names in registration order."""
        return list(self._entries)

    def describe(self) -> list[tuple[str, tuple[str, ...], str]]:
        """``(name, aliases, description)`` rows for listings and the CLI."""
        return [
            (entry.name, entry.aliases, entry.description)
            for entry in self._entries.values()
        ]


#: The process-wide registry instance used by the facade, CLI and harness.
registry = DecomposerRegistry()

# Module-level conveniences bound to the shared instance.
register = registry.register
build = registry.build
available = registry.available
describe = registry.describe
resolve = registry.resolve


def _register_builtins() -> None:
    registry.register(
        "logk",
        module="repro.core.logk",
        class_name="LogKDecomposer",
        aliases=("log-k-decomp",),
        description="Optimised log-k-decomp (Algorithm 2): balanced separators, "
        "logarithmic recursion depth.",
    )
    registry.register(
        "logk-basic",
        module="repro.core.logk_basic",
        class_name="LogKBasicDecomposer",
        aliases=("log-k-decomp-basic",),
        description="Unoptimised log-k-decomp (Algorithm 1), kept for the "
        "ablation studies.",
    )
    registry.register(
        "detk",
        module="repro.core.detk",
        class_name="DetKDecomposer",
        aliases=("det-k-decomp",),
        description="det-k-decomp baseline: strict top-down search with "
        "subproblem caching.",
    )
    registry.register(
        "hybrid",
        module="repro.core.hybrid",
        class_name="HybridDecomposer",
        aliases=("log-k-decomp-hybrid",),
        description="log-k-decomp that delegates small subproblems to "
        "det-k-decomp (the paper's best configuration).",
    )
    registry.register(
        "parallel",
        module="repro.core.parallel",
        class_name="ParallelLogKDecomposer",
        aliases=("log-k-decomp-parallel",),
        description="log-k-decomp with the top-level separator search "
        "partitioned across worker processes.",
    )
    registry.register(
        "ghd",
        module="repro.core.ghd",
        class_name="BalancedGHDDecomposer",
        aliases=("balanced-ghd",),
        description="Generalized HD solver using balanced separators "
        "(no special condition).",
    )


_register_builtins()
