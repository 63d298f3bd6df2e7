"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from repro.hypergraph import Hypergraph, generators


@pytest.fixture
def triangle() -> Hypergraph:
    """The triangle hypergraph (three binary edges, hw = 2)."""
    return generators.cycle(3)


@pytest.fixture
def cycle6() -> Hypergraph:
    """A 6-cycle of binary edges (hw = 2)."""
    return generators.cycle(6)


@pytest.fixture
def cycle10() -> Hypergraph:
    """A 10-cycle of binary edges (hw = 2); the paper's Appendix B example."""
    return generators.cycle(10)


@pytest.fixture
def path5() -> Hypergraph:
    """A path of 5 binary edges (acyclic, hw = 1)."""
    return generators.path(5)


@pytest.fixture
def grid23() -> Hypergraph:
    """A 2x3 grid (hw = 2)."""
    return generators.grid(2, 3)


@pytest.fixture
def clique5() -> Hypergraph:
    """The clique K5 as binary edges (hw = 3)."""
    return generators.clique(5)


@pytest.fixture
def simple_hypergraph() -> Hypergraph:
    """A tiny named hypergraph used by structural tests."""
    return Hypergraph(
        {
            "r": ["x", "y"],
            "s": ["y", "z", "w"],
            "t": ["w", "x"],
        },
        name="simple",
    )


#: Algorithm names exercised by the cross-cutting correctness tests.
HD_ALGORITHMS = ["logk", "logk-basic", "detk", "hybrid"]


@pytest.fixture(params=HD_ALGORITHMS)
def hd_algorithm(request) -> str:
    """Parametrised fixture iterating over all exact HD algorithms."""
    return request.param


@pytest.fixture(params=["numpy", "pure"])
def kernels(request, monkeypatch) -> str:
    """Run a test once per kernel arm of the columnar executor.

    CI's numpy-less legs and a local run with numpy each exercise one arm by
    default; this pins both wherever numpy is importable.  Tables built under
    one arm cache that arm's indexes, so tests taking this fixture build
    their stores and relations inside the test body.
    """
    from repro.query import columnar

    if request.param == "pure":
        monkeypatch.setattr(columnar, "_np", None)
    elif columnar._np is None:
        pytest.skip("numpy is not importable")
    return request.param
