"""Unit tests for Hypergraph.canonical_hash (engine cache keys)."""

from __future__ import annotations

import hashlib

from hypothesis import given, settings, strategies as st

from repro.core.codec import hypergraph_from_dict, hypergraph_to_dict
from repro.hypergraph import (
    Hypergraph,
    from_hif,
    generators,
    parse_hypergraph,
    read_hypergraph,
    to_hif,
    write_hypergraph,
)


def _by_definition(edges) -> str:
    """SHA-256 of the ``repr`` of the sorted ``(name, sorted vertices)`` pairs."""
    pairs = sorted((name, tuple(sorted(vertices))) for name, vertices in edges.items())
    return hashlib.sha256(repr(pairs).encode("utf-8")).hexdigest()


def test_insensitive_to_edge_order():
    a = Hypergraph({"r": ["x", "y"], "s": ["y", "z"]})
    b = Hypergraph({"s": ["y", "z"], "r": ["x", "y"]})
    assert a.canonical_hash() == b.canonical_hash()


def test_insensitive_to_vertex_order_within_edges():
    a = Hypergraph({"r": ["x", "y", "z"]})
    b = Hypergraph({"r": ["z", "x", "y"]})
    assert a.canonical_hash() == b.canonical_hash()


def test_insensitive_to_instance_name():
    a = Hypergraph({"r": ["x", "y"]}, name="first")
    assert a.canonical_hash() == a.rename("second").canonical_hash()


def test_sensitive_to_edge_names():
    a = Hypergraph({"r": ["x", "y"]})
    b = Hypergraph({"q": ["x", "y"]})
    assert a.canonical_hash() != b.canonical_hash()


def test_sensitive_to_vertex_sets():
    a = Hypergraph({"r": ["x", "y"]})
    b = Hypergraph({"r": ["x", "z"]})
    assert a.canonical_hash() != b.canonical_hash()


def test_no_collision_from_separator_characters():
    # Structure characters inside names must not let distinct graphs collide.
    a = Hypergraph({"e(": ["x"]})
    b = Hypergraph({"e": ["(x"]})
    assert a.canonical_hash() != b.canonical_hash()


def test_distinct_small_graphs_hash_distinctly():
    graphs = [
        generators.cycle(4),
        generators.cycle(5),
        generators.path(4),
        generators.star(4),
        generators.grid(2, 3),
        generators.clique(4),
    ]
    hashes = {g.canonical_hash() for g in graphs}
    assert len(hashes) == len(graphs)


def test_memoised_and_stable():
    h = generators.cycle(6)
    assert h.canonical_hash() == h.canonical_hash()
    rebuilt = Hypergraph(h.edges_as_dict(), name=h.name)
    assert rebuilt.canonical_hash() == h.canonical_hash()


def test_round_trip_through_io(tmp_path):
    h = generators.with_chords(generators.cycle(9), 2, seed=1)
    path = tmp_path / "instance.hg"
    write_hypergraph(h, path)
    again = read_hypergraph(path)
    assert again.canonical_hash() == h.canonical_hash()


# Catalog rows and cached results are keyed by these digests: a change to
# how the payload is written must leave them byte-identical.  Plain names
# take the hand-written payload; names that need quoting or escaping take
# repr().  Both literals were computed by the repr() of the pair list.
PINNED = [
    ({"r": ["x", "y"], "s": ["y"], "t": ["z", "y", "x"]},
     "05839d60904cab15403d20643f4c8e7184567eec8127c85dcfd41e07318799f7"),
    ({"o'k": ['a"b', "x"], 'a"b': ["o'k", "back\\slash"], "tab\tname": ["x"],
      "plain": ["x", "y", "z"]},
     "20f14bbc7647b89725f7c317f8fb6186a0ed4246ce1164a396fdb14a48b081f1"),
]


def test_pinned_digests():
    for edges, digest in PINNED:
        assert _by_definition(edges) == digest
        assert Hypergraph(edges).canonical_hash() == digest


def test_every_construction_path_gives_one_digest():
    h = parse_hypergraph("e0(b,a),\ne1(b,c,d),\ne2(d),\ne3(e,a,c).", name="four")
    edges = h.edges_as_dict()
    paths = {
        "parse_hypergraph": h,
        "Hypergraph(dict)": Hypergraph({name: sorted(vs) for name, vs in edges.items()}),
        "Hypergraph(list)": Hypergraph([list(edges[f"e{i}"]) for i in range(4)]),
        "subhypergraph": h.subhypergraph(range(h.num_edges)),
        "rename": h.rename("renamed"),
        "from_hif(to_hif)": from_hif(to_hif(h)),
        "codec": hypergraph_from_dict(hypergraph_to_dict(h)),
    }
    digests = {path: graph.canonical_hash() for path, graph in paths.items()}
    assert set(digests.values()) == {_by_definition(edges)}, digests


_plain = st.text("abc1_", min_size=1, max_size=3)  # the hand-written payload
_odd = st.text("ab'\"\\\t\x7fé ", min_size=1, max_size=3)  # quotes, escapes, non-ASCII


def _graphs(names):
    return st.dictionaries(names, st.frozensets(names, min_size=1, max_size=3), min_size=1, max_size=5)


@given(st.one_of(_graphs(_plain), _graphs(_plain | _odd)))
@settings(max_examples=300, deadline=None)
def test_digest_is_the_sha256_of_the_sorted_pair_repr(edges):
    assert Hypergraph(edges).canonical_hash() == _by_definition(edges)


def test_non_string_vertices_hash_by_definition():
    edges = {"r": [1, 2], "s": [2, 3]}
    assert Hypergraph(edges).canonical_hash() == _by_definition(edges)
