"""Parsing and serialisation of hypergraphs.

Three textual formats are supported:

* **HyperBench format** (the format used by the HyperBench benchmark and the
  det-k-decomp / log-k-decomp tools): one edge per statement of the form
  ``name(v1,v2,...),`` with the last statement terminated by a period instead
  of a comma.  Lines starting with ``%`` or ``#`` are comments.  Whitespace is
  ignored.  Example::

      r1(x1,x2),
      r2(x2,x3),
      r3(x3,x1).

* **PACE-style format** (read only): a header line ``p htd <num_vertices> <num_edges>``
  followed by one line per edge listing vertex numbers; the edge written on
  line ``i`` (after the header) is named ``e<i>``.

* **HIF (Hypergraph Interchange Format)**: the JSON interchange schema used
  across hypergraph libraries — a top-level object with ``nodes``, ``edges``
  and ``incidences`` arrays (:func:`to_hif` / :func:`from_hif`).  The durable
  catalog (:mod:`repro.catalog`) stores instances in this format so its rows
  are readable by other HIF-aware tools.

The parser auto-detects the format (HIF input is recognised by its leading
``{``).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from ..exceptions import ParseError
from .hypergraph import Hypergraph

__all__ = [
    "parse_hypergraph",
    "read_hypergraph",
    "write_hypergraph",
    "to_hyperbench_format",
    "to_hif",
    "from_hif",
]

#: One HyperBench statement: ``name(vertex list)`` or nothing, then its
#: separator.  A vertex list without whitespace is group 2, any other group 3.
_STATEMENT_RE = re.compile(
    r"\s*(?:([A-Za-z0-9_\-.:]+)\s*\((?:([^()\s]*)|([^()]*))\)\s*)?(?:,|\Z)"
)
_STRUCTURE_RE = re.compile(r"[(),]")
_PACE_HEADER_RE = re.compile(r"^\s*p\s+htd\b", re.MULTILINE)
#: Characters that make the line pass of :func:`_strip_comments` change the
#: text: comment marks and every line break ``str.splitlines`` knows but
#: ``\n``.  Without them it only drops a final ``\n``, which parsing strips.
_LINE_PASS_RE = re.compile("[%#\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def parse_hypergraph(text: str, name: str = "") -> Hypergraph:
    """Parse hypergraph ``text`` in HyperBench, PACE or HIF (JSON) format."""
    if text.lstrip().startswith("{"):
        return from_hif(text, name=name)
    stripped = _strip_comments(text) if _LINE_PASS_RE.search(text) else text
    if not stripped.strip():
        raise ParseError("empty hypergraph description")
    if _PACE_HEADER_RE.search(stripped):
        return _parse_pace(stripped, name)
    return _parse_hyperbench(stripped, name)


def read_hypergraph(path: str | Path) -> Hypergraph:
    """Read and parse a hypergraph file, using the file stem as its name."""
    path = Path(path)
    return parse_hypergraph(path.read_text(), name=path.stem)


def write_hypergraph(hypergraph: Hypergraph, path: str | Path) -> None:
    """Write ``hypergraph`` to ``path`` in HyperBench format."""
    Path(path).write_text(to_hyperbench_format(hypergraph))


def to_hyperbench_format(hypergraph: Hypergraph) -> str:
    """Serialise a hypergraph in the HyperBench edge-list format."""
    lines = []
    last = hypergraph.num_edges - 1
    for index in range(hypergraph.num_edges):
        vertices = ",".join(sorted(hypergraph.edge_vertices(index)))
        terminator = "." if index == last else ","
        lines.append(f"{hypergraph.edge_name(index)}({vertices}){terminator}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# HIF (Hypergraph Interchange Format)
# --------------------------------------------------------------------------- #
def to_hif(hypergraph: Hypergraph) -> dict:
    """Serialise a hypergraph as an HIF document (a plain JSON-ready dict).

    Nodes are listed in vertex-id order, edges in edge-index order, and
    incidences in (edge index, vertex name) order, so the rendering is
    deterministic.  The instance name (when set) is carried in
    ``metadata.name``.
    """
    document: dict = {"network-type": "undirected"}
    if hypergraph.name:
        document["metadata"] = {"name": hypergraph.name}
    document["nodes"] = [{"node": vertex} for vertex in hypergraph.vertex_names]
    document["edges"] = [{"edge": name} for name in hypergraph.edge_names]
    document["incidences"] = [
        {"edge": hypergraph.edge_name(index), "node": vertex}
        for index in range(hypergraph.num_edges)
        for vertex in sorted(hypergraph.edge_vertices(index))
    ]
    return document


def from_hif(document: dict | str, name: str = "") -> Hypergraph:
    """Parse an HIF document (a dict or its JSON text) into a :class:`Hypergraph`.

    Edge order follows the ``edges`` array when present, otherwise first
    appearance in ``incidences``.  Isolated nodes (listed in ``nodes`` but
    incident to no edge) are rejected: the library identifies a hypergraph
    with its edge set, so isolated vertices are not representable.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except ValueError as exc:
            raise ParseError(f"HIF input is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError("HIF input must be a JSON object")
    incidences = document.get("incidences")
    if not isinstance(incidences, list):
        raise ParseError("HIF input is missing the 'incidences' array")

    edges: dict[str, list[str]] = {}
    for entry in document.get("edges", []):
        if not isinstance(entry, dict) or "edge" not in entry:
            raise ParseError(f"malformed HIF edge entry {entry!r}")
        edges.setdefault(str(entry["edge"]), [])
    for entry in incidences:
        if not isinstance(entry, dict) or "edge" not in entry or "node" not in entry:
            raise ParseError(f"malformed HIF incidence entry {entry!r}")
        edges.setdefault(str(entry["edge"]), []).append(str(entry["node"]))

    empty = sorted(edge for edge, vertices in edges.items() if not vertices)
    if empty:
        raise ParseError(f"HIF edges without incidences: {empty}")
    if not edges:
        raise ParseError("HIF input describes no edges")

    incident = {vertex for vertices in edges.values() for vertex in vertices}
    isolated = sorted(
        str(entry.get("node"))
        for entry in document.get("nodes", [])
        if isinstance(entry, dict) and str(entry.get("node")) not in incident
    )
    if isolated:
        raise ParseError(
            f"HIF input has isolated nodes {isolated}; hypergraphs are "
            "identified with their edge sets, so isolated vertices cannot "
            "be represented"
        )

    metadata = document.get("metadata")
    if not name and isinstance(metadata, dict):
        name = str(metadata.get("name", ""))
    return Hypergraph(edges, name=name)


# --------------------------------------------------------------------------- #
# internals
# --------------------------------------------------------------------------- #
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
    match = _STATEMENT_RE.match
    position, end = 0, len(body)
    while position < end:
        statement = match(body, position)
        if statement is None:
            raise _statement_error(body, position)
        position = statement.end()
        edge_name, plain, spaced = statement.groups()
        if edge_name is None:
            continue  # an empty statement, as in ``a(x),,b(y)``
        if plain is not None:
            vertices = plain.split(",")
            if "" in vertices:
                vertices = [v for v in vertices if v]
        else:
            vertices = [v for v in map(str.strip, spaced.split(",")) if v]
        if not vertices:
            raise _statement_error(body, position, f"edge {edge_name!r} has no vertices")
        atoms.append((edge_name, vertices))
    if not atoms:
        raise ParseError("no edges found in hypergraph description")
    edges = dict(atoms)
    if len(edges) < len(atoms):
        # A repeated edge name is renamed ``<name>_<n>``, skipping every name
        # the input states itself, so a later explicit edge keeps its own name.
        stated, edges = edges, {}
        position = 0
        for edge_name, vertices in atoms:
            if edge_name in edges:
                base = edge_name
                while edge_name in edges or edge_name in stated:
                    position += 1
                    edge_name = f"{base}_{position}"
            edges[edge_name] = vertices
    return Hypergraph(edges, name=name)


def _statement_error(body: str, position: int, message: str = "") -> ParseError:
    """The error for a bad statement starting at ``position`` of ``body``.

    Unbalanced parentheses anywhere in the text take precedence over any
    one statement's fault.  Without ``message`` the statement is named: the
    text from ``position`` to the next comma outside parentheses.
    """
    depth, stop = 0, len(body)
    for token in _STRUCTURE_RE.finditer(body):
        if token.group() == "(":
            depth += 1
        elif token.group() == ")":
            depth -= 1
            if depth < 0:
                break
        elif depth == 0 and position <= token.start() < stop:
            stop = token.start()
    if depth:
        return ParseError("unbalanced parentheses in hypergraph description")
    if message:
        return ParseError(message)
    return ParseError(f"cannot parse edge statement {body[position:stop].strip()!r}")


def _parse_pace(text: str, name: str) -> Hypergraph:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    header_index = next(
        (i for i, line in enumerate(lines) if line.startswith("p htd")), None
    )
    if header_index is None:
        raise ParseError("missing 'p htd' header")
    header = lines[header_index].split()
    if len(header) != 4:
        raise ParseError(f"malformed PACE header {lines[header_index]!r}")
    try:
        num_vertices, num_edges = int(header[2]), int(header[3])
    except ValueError as exc:
        raise ParseError(f"malformed PACE header {lines[header_index]!r}") from exc
    edge_lines = lines[header_index + 1:]
    if len(edge_lines) != num_edges:
        raise ParseError(
            f"expected {num_edges} edge lines, found {len(edge_lines)}"
        )
    edges: dict[str, list[str]] = {}
    for i, line in enumerate(edge_lines, start=1):
        try:
            ids = [int(token) for token in line.split()]
        except ValueError as exc:
            raise ParseError(f"malformed edge line {line!r}") from exc
        if not ids:
            raise ParseError(f"edge e{i} has no vertices")
        if any(v < 1 or v > num_vertices for v in ids):
            raise ParseError(f"vertex id out of range in edge line {line!r}")
        edges[f"e{i}"] = [f"v{v}" for v in ids]
    return Hypergraph(edges, name=name)
