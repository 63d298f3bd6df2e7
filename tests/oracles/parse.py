"""The HyperBench parser by its definition: split the text, then match each part.

The text is cut at every comma outside parentheses (a balance check over
the whole text comes first), and each part must fullmatch one statement
pattern; each vertex is stripped on its own.  The shipping
:func:`repro.hypergraph.parse_hypergraph` walks the body once with one
anchored regex per statement; a test holds it to this version on generated
text: the same edges in the same order, or the same :class:`ParseError`.
"""

from __future__ import annotations

import re

from repro.exceptions import ParseError
from repro.hypergraph import Hypergraph
from repro.hypergraph.io import _parse_pace, from_hif

_ATOM_RE = re.compile(r"\s*([A-Za-z0-9_\-.:]+)\s*\(([^()]*)\)\s*")
_STRUCTURE_RE = re.compile(r"\([^()]*\)|[(),]")


def parse_hypergraph(text: str, name: str = "") -> Hypergraph:
    """Parse ``text``; HIF and PACE input go to the library's own readers."""
    if text.lstrip().startswith("{"):
        return from_hif(text, name=name)
    stripped = _strip_comments(text)
    if not stripped.strip():
        raise ParseError("empty hypergraph description")
    if re.search(r"^\s*p\s+htd\b", stripped, flags=re.MULTILINE):
        return _parse_pace(stripped, name)
    return _parse_hyperbench(stripped, name)


def _strip_comments(text: str) -> str:
    lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("%") or stripped.startswith("#"):
            continue
        lines.append(line)
    return "\n".join(lines)


def _parse_hyperbench(text: str, name: str) -> Hypergraph:
    body = text.strip()
    if body.endswith("."):
        body = body[:-1]
    atoms: list[tuple[str, list[str]]] = []
    for statement in _split_top_level(body):
        statement = statement.strip()
        if not statement:
            continue
        match = _ATOM_RE.fullmatch(statement)
        if match is None:
            raise ParseError(f"cannot parse edge statement {statement!r}")
        edge_name, vertex_part = match.group(1), match.group(2)
        vertices = [v.strip() for v in vertex_part.split(",") if v.strip()]
        if not vertices:
            raise ParseError(f"edge {edge_name!r} has no vertices")
        atoms.append((edge_name, vertices))
    if not atoms:
        raise ParseError("no edges found in hypergraph description")
    stated = {edge_name for edge_name, _ in atoms}
    edges: dict[str, list[str]] = {}
    position = 0
    for edge_name, vertices in atoms:
        if edge_name in edges:
            base = edge_name
            while edge_name in edges or edge_name in stated:
                position += 1
                edge_name = f"{base}_{position}"
        edges[edge_name] = vertices
    return Hypergraph(edges, name=name)


def _split_top_level(body: str) -> list[str]:
    """Split on commas that are not inside parentheses."""
    parts: list[str] = []
    depth = 0
    start = 0
    for match in _STRUCTURE_RE.finditer(body):
        token = match.group()
        if token == ",":
            if depth == 0:
                parts.append(body[start:match.start()])
                start = match.end()
        elif token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses in hypergraph description")
    if depth != 0:
        raise ParseError("unbalanced parentheses in hypergraph description")
    parts.append(body[start:])
    return parts
