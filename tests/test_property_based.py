"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import DetKDecomposer, LogKDecomposer
from repro.decomp import validate_hd
from repro.decomp.components import components, covered_items
from repro.decomp.extended import full_bitcomp
from repro.hypergraph import Hypergraph
from repro.hypergraph.properties import is_alpha_acyclic
from repro.pipeline import DecompositionEngine, lift_decomposition, simplify
from repro.query.relation import Relation


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
_vertices = st.sampled_from([f"v{i}" for i in range(8)])

_small_hypergraphs = st.lists(
    st.frozensets(_vertices, min_size=1, max_size=3), min_size=1, max_size=7
).map(lambda edges: Hypergraph({f"e{i}": sorted(vs) for i, vs in enumerate(edges)}))

_relation_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12
)


# --------------------------------------------------------------------------- #
# components
# --------------------------------------------------------------------------- #
@given(_small_hypergraphs, st.sets(st.integers(0, 7), max_size=4))
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_components_partition_the_uncovered_edges(hypergraph, vertex_ids):
    separator = 0
    for vid in vertex_ids:
        if vid < hypergraph.num_vertices:
            separator |= 1 << vid
    comp = full_bitcomp(hypergraph)
    parts = components(hypergraph, comp, separator)
    covered = covered_items(hypergraph, comp, separator)
    seen = covered.edges
    for part in parts:
        assert not (seen & part.edges), "components must be disjoint"
        seen |= part.edges
    assert seen == comp.edges
    # Each component's vertices outside the separator are disjoint from the
    # other components' vertices (otherwise they would be [U]-connected).
    outside = [part.vertices(hypergraph) & ~separator for part in parts]
    for i, a in enumerate(outside):
        for b in outside[i + 1:]:
            assert a & b == 0


# --------------------------------------------------------------------------- #
# decomposition correctness on random hypergraphs
# --------------------------------------------------------------------------- #
@given(_small_hypergraphs)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_logk_results_are_always_valid_hds(hypergraph):
    result = LogKDecomposer().decompose(hypergraph, 2)
    if result.success:
        validate_hd(result.decomposition)
        assert result.decomposition.width <= 2


@given(_small_hypergraphs)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_logk_and_detk_agree(hypergraph):
    for k in (1, 2):
        assert (
            LogKDecomposer().decompose(hypergraph, k).success
            == DetKDecomposer().decompose(hypergraph, k).success
        )


@given(_small_hypergraphs)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_acyclicity_matches_width_one(hypergraph):
    # GYO acyclicity and hw = 1 are equivalent characterisations.
    assert is_alpha_acyclic(hypergraph) == DetKDecomposer().decompose(hypergraph, 1).success


@given(_small_hypergraphs)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_success_is_monotone_in_k(hypergraph):
    previous = False
    for k in (1, 2, 3):
        current = LogKDecomposer().decompose(hypergraph, k).success
        assert current or not previous  # once True it must stay True
        previous = current or previous


# --------------------------------------------------------------------------- #
# pipeline: simplification, lifting, engine equivalence
# --------------------------------------------------------------------------- #
@given(_small_hypergraphs)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_simplify_decompose_lift_yields_valid_hd_on_original(hypergraph):
    trace = simplify(hypergraph)
    for k in (1, 2):
        reduced_result = LogKDecomposer().decompose_raw(trace.reduced, k)
        raw_result = LogKDecomposer().decompose_raw(hypergraph, k)
        # Simplification is width-preserving: same yes/no answer at every k.
        assert reduced_result.success == raw_result.success
        if reduced_result.success:
            lifted = lift_decomposition(trace, reduced_result.decomposition)
            assert lifted.hypergraph is hypergraph
            validate_hd(lifted)
            assert lifted.width <= k


@given(_small_hypergraphs)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_agrees_with_raw_search(hypergraph):
    engine = DecompositionEngine()
    for k in (1, 2):
        on = LogKDecomposer(engine=engine).decompose(hypergraph, k)
        off = LogKDecomposer().decompose_raw(hypergraph, k)
        assert on.success == off.success
        if on.success:
            validate_hd(on.decomposition)
            assert on.decomposition.hypergraph is hypergraph


@given(_small_hypergraphs)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_canonical_hash_is_edge_order_invariant(hypergraph):
    edges = list(hypergraph.edges_as_dict().items())
    permuted = Hypergraph(dict(reversed(edges)), name="permuted")
    assert permuted.canonical_hash() == hypergraph.canonical_hash()


# --------------------------------------------------------------------------- #
# relation algebra
# --------------------------------------------------------------------------- #
@given(_relation_rows, _relation_rows)
@settings(max_examples=60)
def test_join_commutativity(rows_a, rows_b):
    a = Relation("a", ("x", "y"), rows_a)
    b = Relation("b", ("y", "z"), rows_b)
    assert a.natural_join(b).as_dicts() == b.natural_join(a).as_dicts()


@given(_relation_rows, _relation_rows)
@settings(max_examples=60)
def test_semijoin_is_projection_of_join(rows_a, rows_b):
    a = Relation("a", ("x", "y"), rows_a)
    b = Relation("b", ("y", "z"), rows_b)
    reduced = a.semijoin(b)
    joined = a.natural_join(b)
    expected = joined.project(["x", "y"]) if len(joined) else Relation("e", ("x", "y"), [])
    assert reduced.as_dicts() == expected.as_dicts()


@given(_relation_rows)
@settings(max_examples=40)
def test_projection_idempotent(rows):
    a = Relation("a", ("x", "y"), rows)
    once = a.project(["x"])
    twice = once.project(["x"])
    assert once.as_dicts() == twice.as_dicts()
    assert len(once) <= len(a)
