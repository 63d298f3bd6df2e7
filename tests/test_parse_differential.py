"""The HyperBench parser against its definition (``tests/oracles/parse.py``).

The shipping parser walks the body once with one anchored regex per
statement and splits a vertex list without whitespace with no per-vertex
strip; the oracle splits the text at top-level commas and fullmatches each
part.  On every generated text both must give the same edges (order, names,
vertex sets) or the same :class:`ParseError` text.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st
from oracles.parse import parse_hypergraph as parse_by_definition

from repro.exceptions import ParseError
from repro.hypergraph import parse_hypergraph


def _outcome(parse, text):
    try:
        h = parse(text)
    except ParseError as error:
        return "error", str(error)
    edges = [(h.edge_name(i), h.edge_vertices(i)) for i in range(h.num_edges)]
    return "ok", edges, h.vertex_names


# Few, short names, so duplicate edge names are common; ``-.:`` included.
_names = st.text("ab1_-.:", min_size=1, max_size=2)
_space = st.sampled_from(["", "", " ", "\n", " \n  ", "\t"])
_core = st.text("xy2_-.:", min_size=1, max_size=2)
_vertex = st.builds(
    lambda before, vertex, after: before + vertex + after,
    _space,
    st.builds(
        lambda a, gap, b, kind: {0: a, 1: a + gap + b, 2: ""}[kind],
        _core,
        st.sampled_from([" ", "\n "]),  # whitespace inside a vertex name
        _core,
        st.sampled_from([0, 0, 0, 0, 1, 1, 2]),  # 2: an empty entry, as in ``(x,,y)``
    ),
    _space,
)
_edge = st.builds(
    lambda name, gap, vertices: f"{name}{gap}({','.join(vertices)})",
    _names,
    _space,
    st.lists(_vertex, min_size=1, max_size=4),
)
_odd = st.one_of(
    _space,  # an empty statement, as in ``,,``
    _space,
    st.text("ab(),.%# \n", max_size=6),  # garbage
    st.builds(lambda name: name + "( ,\n)", _names),  # no vertices
)
_separator = st.sampled_from([",", ", ", ",\n", ",\n% a comment\n", ",\n  # another\n"])


@st.composite
def _hyperbench_texts(draw):
    statements = draw(st.lists(_edge, min_size=1, max_size=8))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        statements.insert(draw(st.integers(0, len(statements))), draw(_odd))
    text = statements[0]
    for statement in statements[1:]:
        text += draw(_separator) + statement
    head = draw(st.sampled_from(["", "% header comment\n", "# header\n\n", "\n "]))
    tail = draw(st.sampled_from(["", ".", ".\n", " . ", ",", "..", "\n% trailing\n"]))
    return head + text + tail


@given(_hyperbench_texts())
@settings(max_examples=600, deadline=None)
def test_parser_matches_the_split_and_match_definition(text):
    assert _outcome(parse_hypergraph, text) == _outcome(parse_by_definition, text)


@given(st.text("ab:(),. \n\r%#", max_size=24))
@settings(max_examples=600, deadline=None)
def test_parser_matches_the_definition_on_arbitrary_text(text):
    assert _outcome(parse_hypergraph, text) == _outcome(parse_by_definition, text)
