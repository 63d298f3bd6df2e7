"""Unit tests for the width-preserving simplifier and its lifting."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles.simplify import simplify as simplify_by_definition

from repro.core import DetKDecomposer, LogKDecomposer
from repro.decomp import validate_hd
from repro.decomp.validation import check_width
from repro.hypergraph import Hypergraph, generators
from repro.pipeline import (
    CollapsedVertices,
    RemovedEdge,
    SimplificationTrace,
    lift_decomposition,
    simplify,
)


def _removed(trace: SimplificationTrace) -> list[RemovedEdge]:
    return [step for step in trace.steps if isinstance(step, RemovedEdge)]


def _collapsed(trace: SimplificationTrace) -> list[CollapsedVertices]:
    return [step for step in trace.steps if isinstance(step, CollapsedVertices)]


def test_irreducible_instance_is_returned_unchanged(cycle10):
    trace = simplify(cycle10)
    assert not trace.reduced_anything
    assert trace.reduced is cycle10  # no copy when nothing reduces


def test_subsumed_edge_removal():
    h = Hypergraph({"big": ["a", "b", "c"], "sub": ["a", "b"], "other": ["c", "d"]})
    trace = simplify(h)
    removed = _removed(trace)
    assert [r.name for r in removed] == ["sub"]
    assert removed[0].witness == "big"
    assert set(trace.reduced.edge_names) == {"big", "other"}
    # The original hypergraph object is untouched.
    assert h.num_edges == 3


def test_duplicate_edges_keep_smaller_name():
    h = Hypergraph({"b": ["x", "y"], "a": ["y", "x"], "c": ["y", "z"]})
    trace = simplify(h)
    assert "a" in trace.reduced
    assert "b" not in trace.reduced
    assert {r.name for r in _removed(trace)} == {"b"}


def test_redundant_cycle_strips_back_to_the_plain_cycle():
    # Per cycle edge a duplicate and a unary sub-edge: the redundancy real CQ
    # workloads carry, and all of it subsumed.
    base = generators.cycle(16)
    edges = {}
    for name, vertices in base.edges_as_dict().items():
        ordered = sorted(vertices)
        edges[name] = ordered
        edges[f"{name}_dup"] = ordered
        edges[f"{name}_sub"] = ordered[:1]
    trace = simplify(Hypergraph(edges))
    assert trace.reduced.num_edges == 16
    assert len(_removed(trace)) == 32


def test_degree_one_vertices_collapse_to_one_representative():
    # p1/p2/p3 occur only in "tail": they are interchangeable and collapse
    # onto p1; the final private vertex must survive (removing it is not
    # liftable through the special condition).
    h = Hypergraph({"core": ["x", "y"], "tail": ["y", "p1", "p2", "p3"]})
    trace = simplify(h)
    collapsed = _collapsed(trace)
    assert collapsed == [CollapsedVertices(representative="p1", removed=("p2", "p3"))]
    assert trace.reduced.vertices == {"x", "y", "p1"}
    assert trace.reduced.num_edges == 2


def test_identical_membership_vertices_collapse_across_edges():
    # u and v occur in exactly {e1, e2}: interchangeable even at degree 2.
    h = Hypergraph({"e1": ["u", "v", "w"], "e2": ["u", "v", "z"], "e3": ["w", "z"]})
    trace = simplify(h)
    assert any(
        step.representative == "u" and step.removed == ("v",)
        for step in _collapsed(trace)
    )


def test_reductions_cascade_to_fixpoint():
    # Removing "small" (a subset of "large") leaves b1/b2 and a/c with one
    # membership each, so the same round collapses them; the next round
    # finds nothing more.
    h = Hypergraph(
        {
            "large": ["a", "b1", "b2", "c"],
            "small": ["b1", "b2"],
            "anchor": ["a", "c", "d"],
        }
    )
    trace = simplify(h)
    assert "small" not in trace.reduced
    assert simplify(trace.reduced).reduced is trace.reduced  # idempotent


def test_simplify_is_idempotent_on_corpus_samples():
    for seed in range(4):
        h = generators.random_query(12, 10, seed=seed, acyclic_bias=0.5)
        reduced = simplify(h).reduced
        assert not simplify(reduced).reduced_anything


def test_trace_summary_mentions_sizes():
    h = Hypergraph({"big": ["a", "b", "c"], "sub": ["a", "b"]})
    summary = simplify(h).summary()
    assert "2->1 edges" in summary


@pytest.mark.parametrize("decomposer_cls", [LogKDecomposer, DetKDecomposer])
def test_lift_produces_valid_hd_on_original(decomposer_cls):
    h = Hypergraph(
        {
            "big": ["a", "b", "c", "d"],
            "sub": ["a", "b"],
            "dup": ["d", "c", "b", "a"],
            "tail": ["d", "p1", "p2"],
            "bridge": ["c", "e"],
            "loop1": ["e", "f"],
            "loop2": ["f", "g"],
            "loop3": ["g", "e"],
        },
        name="messy",
    )
    trace = simplify(h)
    assert trace.reduced_anything
    result = decomposer_cls().decompose_raw(trace.reduced, 2)
    assert result.success
    lifted = lift_decomposition(trace, result.decomposition)
    assert lifted.hypergraph is h
    validate_hd(lifted)
    check_width(lifted, 2)
    assert lifted.width == result.decomposition.width


def test_lift_restores_transitively_collapsed_vertices():
    # Hand-built trace with a representative chain: x collapsed onto r in an
    # early step, r itself collapsed onto s later.  The lift must replay the
    # steps in reverse (restore r wherever s is, then x wherever r is).
    original = Hypergraph({"e": ["s", "r", "x", "w"], "f": ["w", "v"]})
    reduced = Hypergraph({"e": ["s", "w"], "f": ["w", "v"]})
    trace = SimplificationTrace(
        original=original,
        reduced=reduced,
        steps=[
            CollapsedVertices(representative="r", removed=("x",)),
            CollapsedVertices(representative="s", removed=("r",)),
        ],
    )
    result = LogKDecomposer().decompose_raw(reduced, 1)
    assert result.success
    lifted = lift_decomposition(trace, result.decomposition)
    validate_hd(lifted)
    for node in lifted.nodes():
        if "s" in node.bag:
            assert {"r", "x"} <= node.bag
    covered = set()
    for node in lifted.nodes():
        covered |= node.bag
    assert covered == original.vertices


def test_collapse_and_subsumption_interact_in_one_pass():
    # Removing the subsumed "sub" edge makes q interchangeable with the
    # private tail vertices; everything collapses onto p1 in the same pass.
    h = Hypergraph(
        {
            "core": ["x", "y"],
            "tail": ["y", "p1", "p2", "q"],
            "sub": ["q", "y"],
        }
    )
    trace = simplify(h)
    assert {r.name for r in _removed(trace)} == {"sub"}
    assert _collapsed(trace) == [
        CollapsedVertices(representative="p1", removed=("p2", "q"))
    ]
    result = LogKDecomposer().decompose_raw(trace.reduced, 1)
    assert result.success
    lifted = lift_decomposition(trace, result.decomposition)
    validate_hd(lifted)
    covered = set()
    for node in lifted.nodes():
        covered |= node.bag
    assert covered == h.vertices


def test_width_decision_is_preserved_by_simplification():
    # hw(reduced) == hw(original) in both directions, checked per k.
    cases = [
        Hypergraph({"big": ["a", "b", "c"], "sub": ["a", "b"], "e": ["c", "d"]}),
        generators.with_chords(generators.cycle(8), 2, seed=3),
        Hypergraph({"t1": ["x", "u1", "u2"], "t2": ["x", "y"], "t3": ["y", "z"]}),
    ]
    for h in cases:
        trace = simplify(h)
        for k in (1, 2, 3):
            raw = LogKDecomposer().decompose_raw(h, k).success
            red = LogKDecomposer().decompose_raw(trace.reduced, k).success
            assert raw == red, (h.edges_as_dict(), k)


@st.composite
def _redundant_hypergraphs(draw):
    """Hypergraphs rich in what the reductions remove: duplicate edges,
    nested subsets and supersets with private vertices (identical
    memberships), under shuffled names so position order and name order
    disagree.  Removing a subset can leave two vertices with one membership,
    so a round's collapse cascades from its removals."""
    pool = [f"v{i}" for i in range(draw(st.integers(2, 8)))]
    edges = draw(
        st.lists(
            st.frozensets(st.sampled_from(pool), min_size=1, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    for _ in range(draw(st.integers(0, 8))):
        source = draw(st.sampled_from(edges))
        kind = draw(st.sampled_from(["duplicate", "subset", "private"]))
        if kind == "duplicate":
            edges.append(source)
        elif kind == "subset":
            edges.append(draw(st.frozensets(st.sampled_from(sorted(source)), min_size=1)))
        else:
            count = draw(st.integers(1, 3))
            edges.append(source | {f"p{len(edges)}_{j}" for j in range(count)})
    names = draw(st.permutations([f"e{i}" for i in range(len(edges))]))
    return Hypergraph({name: sorted(vs) for name, vs in zip(names, edges)})


@given(_redundant_hypergraphs())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_simplify_matches_the_all_pairs_reference(hypergraph):
    # One shipping pass against the reference iterated to its fixpoint: the
    # same steps, so no second round is ever needed.
    got = simplify(hypergraph)
    want = simplify_by_definition(hypergraph)
    assert list(got.reduced.edges_as_dict().items()) == list(
        want.reduced.edges_as_dict().items()
    )
    assert got.steps == want.steps  # witnesses and collapse classes included
