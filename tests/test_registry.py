"""Unit tests for the declarative decomposer registry."""

from __future__ import annotations

import pytest

from repro.core import make_decomposer
from repro.core.detk import DetKDecomposer
from repro.core.hybrid import HybridDecomposer
from repro.exceptions import SolverError
from repro.hypergraph import generators
from repro.pipeline import DecomposerRegistry, DecompositionEngine, ResultCache, registry
from repro.query import QueryEngine
from repro.service import DecompositionService


def test_build_by_alias():
    assert isinstance(registry.build("log-k-decomp-hybrid"), HybridDecomposer)
    assert isinstance(registry.build("det-k-decomp"), DetKDecomposer)


def test_build_forwards_options():
    decomposer = registry.build("detk", timeout=1.5, use_cache=False)
    assert decomposer.timeout == 1.5
    assert decomposer.use_cache is False
    for name, removed in (("hybrid", "label_pruning"), ("parallel", "backend")):
        with pytest.raises(TypeError):
            registry.build(name, **{removed: True})


def test_unknown_name_raises():
    with pytest.raises(SolverError):
        registry.build("quantum-annealer")
    with pytest.raises(SolverError):
        registry.resolve("quantum-annealer")


def test_make_decomposer_accepts_aliases():
    assert isinstance(make_decomposer("log-k-decomp"), type(make_decomposer("logk")))


def test_contains_and_describe():
    assert "logk" in registry
    assert "log-k-decomp" in registry
    assert "nope" not in registry
    rows = registry.describe()
    assert any(name == "hybrid" and description for name, _, description in rows)


def test_register_custom_factory_with_defaults():
    fresh = DecomposerRegistry()

    class Dummy:
        def __init__(self, timeout=None, flavour="plain"):
            self.timeout = timeout
            self.flavour = flavour

    fresh.register("dummy", factory=Dummy, aliases=("d",))
    built = fresh.build("d", timeout=3)
    assert built.flavour == "plain" and built.timeout == 3  # the factory's defaults
    assert fresh.build("dummy", flavour="mild").flavour == "mild"
    with pytest.raises(TypeError):
        fresh.register("spicy", factory=Dummy, defaults={"flavour": "spicy"})


def test_duplicate_registration_rejected_and_overwritable():
    fresh = DecomposerRegistry()
    fresh.register("x", factory=object)
    with pytest.raises(SolverError):
        fresh.register("x", factory=object)
    with pytest.raises(SolverError):
        fresh.register("y", factory=object, aliases=("x",))
    fresh.register("x", factory=dict, overwrite=True)
    assert isinstance(fresh.build("x"), dict)


def test_overwrite_drops_replaced_aliases():
    fresh = DecomposerRegistry()
    fresh.register("x", factory=object, aliases=("old-alias",))
    fresh.register("x", factory=dict, overwrite=True, aliases=("new-alias",))
    assert "old-alias" not in fresh  # no dangling alias -> no KeyError later
    assert isinstance(fresh.build("new-alias"), dict)
    with pytest.raises(SolverError):
        fresh.build("old-alias")


def test_registration_requires_some_factory():
    fresh = DecomposerRegistry()
    with pytest.raises(SolverError):
        fresh.register("ghost")


def test_unregister_removes_aliases():
    fresh = DecomposerRegistry()
    fresh.register("x", factory=object, aliases=("ex",))
    fresh.unregister("ex")
    assert "x" not in fresh
    assert "ex" not in fresh


#: Engine cache entries, catalog rows, compiled-plan cache entries and the
#: serving layer's dedup table are keyed by these; a refactor of a
#: decomposer's attributes must not move them.
_PINNED_IDENTITIES = [
    (
        "logk",
        {},
        (
            "log-k-decomp",
            (
                ("negative_base_case", True),
                ("parent_overlap_pruning", True),
                ("require_balanced", True),
                ("subedge_domination", True),
                ("timeout", None),
            ),
        ),
    ),
    ("logk-basic", {}, ("log-k-decomp-basic", (("timeout", None),))),
    (
        "detk",
        {},
        (
            "det-k-decomp",
            (
                ("subedge_domination", True),
                ("timeout", None),
                ("use_cache", True),
            ),
        ),
    ),
    (
        "hybrid",
        {},
        (
            "log-k-decomp-hybrid",
            (
                ("metric", "WeightedCountMetric"),
                ("negative_base_case", True),
                ("parent_overlap_pruning", True),
                ("subedge_domination", True),
                ("threshold", 400.0),
                ("timeout", None),
            ),
        ),
    ),
    (
        "parallel",
        {},
        (
            "log-k-decomp-parallel",
            (
                ("hybrid", True),
                ("metric", "WeightedCount"),
                ("num_workers", 1),
                ("subedge_domination", True),
                ("threshold", 400.0),
                ("timeout", None),
            ),
        ),
    ),
    ("ghd", {}, ("balanced-ghd", (("require_balanced", True), ("timeout", None)))),
    (
        "parallel",
        {"num_workers": 2},
        (
            "log-k-decomp-parallel",
            (
                ("hybrid", True),
                ("metric", "WeightedCount"),
                ("num_workers", 2),
                ("subedge_domination", True),
                ("threshold", 400.0),
                ("timeout", None),
            ),
        ),
    ),
]


@pytest.mark.parametrize(
    "name,options,cache_key",
    _PINNED_IDENTITIES,
    ids=[name + "".join(f"-{k}{v}" for k, v in opts.items()) for name, opts, _ in _PINNED_IDENTITIES],
)
def test_cache_and_configuration_keys_are_pinned(name, options, cache_key, monkeypatch):
    assert registry.build(name, **options).cache_key() == cache_key
    assert QueryEngine(algorithm=name, **options).configuration == cache_key
    probed = []
    get = ResultCache.get
    monkeypatch.setattr(
        ResultCache, "get", lambda self, key: (probed.append(key[2]), get(self, key))[1]
    )
    with DecompositionService(workers=1, engine=DecompositionEngine()) as service:
        ticket = service.submit(generators.cycle(6), 2, algorithm=name, **options)
        assert ticket.result(timeout=30).success
    assert ticket.key[3] == cache_key and set(probed) == {cache_key}
