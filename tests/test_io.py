"""Unit tests for hypergraph parsing and serialisation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ParseError
from repro.hypergraph import Hypergraph, from_hif, parse_hypergraph, read_hypergraph, to_hif, write_hypergraph
from repro.hypergraph.io import to_hyperbench_format


HYPERBENCH_TEXT = """
% a toy instance
r1(x1,x2),
r2(x2,x3),
r3(x3,x1).
"""

PACE_TEXT = """
p htd 4 3
1 2
2 3
3 4 1
"""


def test_parse_hyperbench_format():
    h = parse_hypergraph(HYPERBENCH_TEXT, name="toy")
    assert h.name == "toy"
    assert h.num_edges == 3
    assert h.edge_vertices(h.edge_index("r2")) == {"x2", "x3"}


def test_parse_pace_format():
    h = parse_hypergraph(PACE_TEXT)
    assert h.num_edges == 3
    assert h.num_vertices == 4
    assert h.edge_vertices(h.edge_index("e3")) == {"v1", "v3", "v4"}


def test_parse_empty_raises():
    with pytest.raises(ParseError):
        parse_hypergraph("   \n  ")


def test_parse_comments_only_raises():
    with pytest.raises(ParseError):
        parse_hypergraph("% nothing here\n# still nothing\n")


def test_parse_malformed_statement_raises():
    with pytest.raises(ParseError):
        parse_hypergraph("r1(x1,x2), garbage, r2(x2).")


def test_parse_unbalanced_parentheses_raises():
    with pytest.raises(ParseError):
        parse_hypergraph("r1(x1,x2.")


def test_parse_edge_without_vertices_raises():
    with pytest.raises(ParseError):
        parse_hypergraph("r1().")


def test_parse_pace_bad_header_raises():
    with pytest.raises(ParseError):
        parse_hypergraph("p htd x y\n1 2\n")


def test_parse_pace_wrong_edge_count_raises():
    with pytest.raises(ParseError):
        parse_hypergraph("p htd 3 2\n1 2\n")


def test_parse_pace_vertex_out_of_range_raises():
    with pytest.raises(ParseError):
        parse_hypergraph("p htd 2 1\n1 5\n")


def test_duplicate_edge_names_get_disambiguated():
    h = parse_hypergraph("r(x,y),\nr(y,z).")
    assert h.num_edges == 2
    assert len(set(h.edge_names)) == 2


def test_generated_edge_name_skips_names_the_input_states():
    # The duplicate "a" must not be renamed to "a_1": the input names a
    # later edge "a_1" itself, and that edge keeps its name.
    h = parse_hypergraph("a(x,y), a(y,z), a_1(z,w).")
    assert h.edge_names == ("a", "a_2", "a_1")
    assert h.edge_vertices(h.edge_index("a_1")) == {"z", "w"}
    assert h.edge_vertices(h.edge_index("a_2")) == {"y", "z"}


@pytest.mark.parametrize(
    "text, message",
    [
        ("a(b,c)),d(", "unbalanced parentheses in hypergraph description"),
        ("x(y", "unbalanced parentheses in hypergraph description"),
        ("a(b,(c)),d", "cannot parse edge statement 'a(b,(c))'"),
        ("a(b)c(d)", "cannot parse edge statement 'a(b)c(d)'"),
        ("a()", "edge 'a' has no vertices"),
        # A malformed statement before an unbalanced one: the balance check
        # runs over the whole text first.
        ("garbage, a(b", "unbalanced parentheses in hypergraph description"),
    ],
)
def test_malformed_hyperbench_error_messages_are_pinned(text, message):
    with pytest.raises(ParseError) as info:
        parse_hypergraph(text)
    assert str(info.value) == message


def test_empty_statements_between_commas_are_skipped():
    h = parse_hypergraph(",,a(b),")
    assert h.edge_names == ("a",)
    assert h.edge_vertices(0) == {"b"}


_names = st.text("abcdefxyz0123456789_-.:", min_size=1, max_size=4)


@given(
    st.lists(
        st.tuples(_names, st.frozensets(_names, min_size=1, max_size=4)),
        min_size=1,
        max_size=8,
        unique_by=lambda edge: edge[0],
    )
)
@settings(max_examples=200, deadline=None)
def test_hyperbench_text_roundtrips(edges):
    h = Hypergraph(dict(edges))
    parsed = parse_hypergraph(to_hyperbench_format(h))
    assert parsed.edge_names == h.edge_names
    assert parsed.vertex_names == h.vertex_names
    assert [parsed.edge_vertices(i) for i in range(parsed.num_edges)] == [
        h.edge_vertices(i) for i in range(h.num_edges)
    ]


def test_hyperbench_roundtrip(simple_hypergraph):
    text = to_hyperbench_format(simple_hypergraph)
    parsed = parse_hypergraph(text)
    assert parsed == simple_hypergraph


def test_file_roundtrip(tmp_path, simple_hypergraph):
    path = tmp_path / "simple.hg"
    write_hypergraph(simple_hypergraph, path)
    loaded = read_hypergraph(path)
    assert loaded == simple_hypergraph
    assert loaded.name == "simple"


def test_hyperbench_format_ends_with_period(simple_hypergraph):
    text = to_hyperbench_format(simple_hypergraph).strip()
    assert text.endswith(".")
    assert text.count(",\n") == simple_hypergraph.num_edges - 1 or simple_hypergraph.num_edges == 1


def test_parse_accepts_qualified_names():
    h = parse_hypergraph("db.table-1(a,b),\nns:rel(b,c).")
    assert h.num_edges == 2
    assert "db.table-1" in h


# --------------------------------------------------------------------------- #
# HIF (Hypergraph Interchange Format)
# --------------------------------------------------------------------------- #
def test_hif_roundtrip(simple_hypergraph):
    document = to_hif(simple_hypergraph)
    restored = from_hif(document)
    assert restored == simple_hypergraph
    assert restored.canonical_hash() == simple_hypergraph.canonical_hash()


def test_hif_roundtrip_through_json_text(simple_hypergraph):
    import json

    text = json.dumps(to_hif(simple_hypergraph))
    assert from_hif(text) == simple_hypergraph
    # parse_hypergraph auto-detects HIF input by its leading brace.
    assert parse_hypergraph(text) == simple_hypergraph


def test_hif_document_shape(simple_hypergraph):
    document = to_hif(simple_hypergraph)
    assert document["network-type"] == "undirected"
    assert {entry["node"] for entry in document["nodes"]} == simple_hypergraph.vertices
    assert [entry["edge"] for entry in document["edges"]] == list(
        simple_hypergraph.edge_names
    )
    assert len(document["incidences"]) == sum(
        len(simple_hypergraph.edge_vertices(i))
        for i in range(simple_hypergraph.num_edges)
    )


def test_hif_metadata_carries_the_name():
    h = parse_hypergraph("r(x,y),\ns(y,z).", name="named")
    document = to_hif(h)
    assert document["metadata"]["name"] == "named"
    assert from_hif(document).name == "named"
    assert from_hif(document, name="override").name == "override"


def test_hif_edge_order_follows_edges_array():
    document = {
        "edges": [{"edge": "b"}, {"edge": "a"}],
        "incidences": [
            {"edge": "a", "node": "x"},
            {"edge": "a", "node": "y"},
            {"edge": "b", "node": "y"},
            {"edge": "b", "node": "z"},
        ],
    }
    h = from_hif(document)
    assert list(h.edge_names) == ["b", "a"]


def test_hif_rejects_garbage():
    with pytest.raises(ParseError):
        from_hif("not json {")
    with pytest.raises(ParseError):
        from_hif("[1, 2, 3]")
    with pytest.raises(ParseError):
        from_hif({"nodes": []})  # missing incidences
    with pytest.raises(ParseError):
        from_hif({"incidences": [{"edge": "e"}]})  # incidence without node
    with pytest.raises(ParseError):
        from_hif({"incidences": []})  # no edges at all


def test_hif_rejects_edges_without_incidences():
    with pytest.raises(ParseError, match="without incidences"):
        from_hif(
            {
                "edges": [{"edge": "e1"}, {"edge": "empty"}],
                "incidences": [{"edge": "e1", "node": "x"}],
            }
        )


def test_hif_rejects_isolated_nodes():
    with pytest.raises(ParseError, match="isolated"):
        from_hif(
            {
                "nodes": [{"node": "x"}, {"node": "lonely"}],
                "incidences": [{"edge": "e1", "node": "x"}],
            }
        )
