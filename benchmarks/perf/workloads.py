"""Inputs of the perf ledger: seeded generators and the verified instance tables.

Everything here is plain data — edge lists, HyperBench text, CQ text, row
lists.  Nothing is imported from ``repro``: later changes may edit the
library's own generators and corpus, and the benchmark's inputs must not
move with them.
"""

from __future__ import annotations

import random

Edges = list[tuple[str, tuple[str, ...]]]


# --------------------------------------------------------------------------- #
# structural generators (committed form; the seed only relabels/shuffles)
# --------------------------------------------------------------------------- #
def cycle(length: int) -> Edges:
    return [(f"R{i + 1}", (f"x{i + 1}", f"x{(i + 1) % length + 1}")) for i in range(length)]


def chorded_cycle(length: int, chords: int, chord_seed: int) -> Edges:
    """A cycle of binary edges plus ``chords`` random binary chords."""
    edges = cycle(length)
    rng = random.Random(chord_seed)
    vertices = sorted({v for _, scope in edges for v in scope})
    existing = {frozenset(scope) for _, scope in edges}
    added = attempts = 0
    while added < chords and attempts < 100 * max(chords, 1):
        attempts += 1
        u, v = rng.sample(vertices, 2)
        if frozenset((u, v)) in existing:
            continue
        existing.add(frozenset((u, v)))
        edges.append((f"chord{added}", (u, v)))
        added += 1
    return edges


def path(length: int) -> Edges:
    return [(f"R{i + 1}", (f"x{i + 1}", f"x{i + 2}")) for i in range(length)]


def star(rays: int) -> Edges:
    return [(f"R{i + 1}", ("hub", f"x{i + 1}", f"y{i + 1}")) for i in range(rays)]


def triangle_cascade(count: int) -> Edges:
    edges: Edges = []
    for i in range(count):
        a, b, c = f"x{2 * i}", f"x{2 * i + 1}", f"x{2 * i + 2}"
        edges += [(f"a{i}", (a, b)), (f"b{i}", (b, c)), (f"c{i}", (c, a))]
    return edges


def grid(rows: int, cols: int) -> Edges:
    edges: Edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((f"h{r}_{c}", (f"v{r}_{c}", f"v{r}_{c + 1}")))
            if r + 1 < rows:
                edges.append((f"w{r}_{c}", (f"v{r}_{c}", f"v{r + 1}_{c}")))
    return edges


def join_query(atoms: int, variables: int, query_seed: int, reuse: float = 0.5) -> Edges:
    """An application-style join query: atoms of arity 2-4 reusing earlier variables."""
    rng = random.Random(query_seed)
    pool = [f"x{i}" for i in range(variables)]
    used: list[str] = []
    edges: Edges = []
    for a in range(atoms):
        scope: list[str] = []
        for _ in range(rng.randint(2, 4)):
            candidate = rng.choice(used) if used and rng.random() < reuse else rng.choice(pool)
            if candidate not in scope:
                scope.append(candidate)
        while len(scope) < 2:
            candidate = rng.choice(pool)
            if candidate not in scope:
                scope.append(candidate)
        edges.append((f"q{a}", tuple(scope)))
        used.extend(v for v in scope if v not in used)
    return edges


# --------------------------------------------------------------------------- #
# seeding: relabel (search-order preserving) and shuffle (order changing)
# --------------------------------------------------------------------------- #
def relabel(edges: Edges, tag: str, rng: random.Random | None = None, shuffle: bool = False) -> Edges:
    """Rename every vertex and edge with ``tag``; optionally shuffle the order.

    Renaming alone keeps edge order and within-edge vertex order, which is
    what the separator search's enumeration order depends on, so the work
    of a *find* (``k = w``) is unchanged; the canonical hash is
    name-sensitive, so the relabelled instance is a distinct cache key.
    ``shuffle=True`` also permutes edges and scopes — width-invariant, but
    only exhaustive refutations (``k = w - 1``) cost the same afterwards.
    """
    vertices = list(dict.fromkeys(v for _, scope in edges for v in scope))
    vertex_ids = list(range(len(vertices)))
    edge_ids = list(range(len(edges)))
    if rng is not None:
        rng.shuffle(vertex_ids)
        rng.shuffle(edge_ids)
    vmap = {v: f"{tag}v{i}" for v, i in zip(vertices, vertex_ids)}
    out = [
        (f"{tag}e{edge_ids[i]}", tuple(vmap[v] for v in scope))
        for i, (_, scope) in enumerate(edges)
    ]
    if shuffle and rng is not None:
        out = [(name, tuple(rng.sample(scope, len(scope)))) for name, scope in out]
        rng.shuffle(out)
    return out


def hyperbench_text(edges: Edges) -> str:
    return ",\n".join(f"{name}({','.join(scope)})" for name, scope in edges) + ".\n"


# --------------------------------------------------------------------------- #
# verified instance tables
# --------------------------------------------------------------------------- #
#: name -> (edges, hypertree width).  Widths were established with both
#: ``logk`` and ``hybrid`` when the table was written; every run re-checks
#: them through the expected ``success`` flag of each op (``k = w - 1`` must
#: be refuted, ``k = w`` must be found and validated).
INSTANCES: dict[str, tuple[Edges, int]] = {
    "cc48": (chorded_cycle(48, 5, 0), 3),
    "cc60": (chorded_cycle(60, 6, 7), 3),
    "cc64": (chorded_cycle(64, 7, 2), 3),
    "cc72": (chorded_cycle(72, 7, 3), 2),
    "cc78": (chorded_cycle(78, 6, 9), 3),
    "cc92": (chorded_cycle(92, 6, 2), 3),
    "cc108": (chorded_cycle(102, 6, 4), 2),
    "cc122": (chorded_cycle(116, 6, 1), 2),
    "jq26": (join_query(26, 30, 1), 3),
    "jq30": (join_query(30, 34, 2), 3),
    # small keys of the cache/catalog workload (7-22 edges, w 1-3)
    "path7": (path(7), 1),
    "star8": (star(8), 1),
    "cycle10": (cycle(10), 2),
    "tri5": (triangle_cascade(5), 2),
    "grid3x3": (grid(3, 3), 2),
    "grid3x4": (grid(3, 4), 2),
    "cc17": (chorded_cycle(14, 3, 1), 2),
    "jq18": (join_query(18, 22, 3), 3),
    "cc22": (chorded_cycle(18, 4, 0), 2),
    # fresh service decompositions (26-31 edges, w 3)
    "cc26": (chorded_cycle(22, 4, 0), 3),
    "cc28": (chorded_cycle(24, 4, 1), 3),
    "cc30": (chorded_cycle(26, 4, 0), 3),
    "cc31": (chorded_cycle(27, 4, 0), 3),
}

REFUTE, FIND = "refute", "find"

#: ``decomp_search``: (instance, refute|find, algorithm).  Refutations decide
#: ``k = w - 1`` exhaustively; finds decide ``k = w``.  ``logk`` refutes the
#: 60-92-edge cycles in 0.1-0.3 s where ``hybrid`` needs 1.5-8 s, and
#: ``hybrid`` finds in milliseconds what ``logk`` finds in 0.2-16 s, so each
#: arm carries the large ops it can finish and a few on the other's side
#: (``logk`` finds on cc64/cc72, ``hybrid`` refutes cc48), sized to keep one
#: round near 3 s.  The op count is odd and the largest instance carries
#: three ops, so the median and the 95th percentile of the latencies fall
#: inside one op's samples instead of on the border between two ops.
SEARCH_OPS: tuple[tuple[str, str, str], ...] = (
    *((name, REFUTE, "logk")
      for name in ("cc60", "cc64", "cc72", "cc78", "cc92", "cc108", "cc122", "jq26", "jq30")),
    *((name, FIND, "logk") for name in ("cc64", "cc72", "jq26", "jq30")),
    *((name, REFUTE, "hybrid") for name in ("cc48", "cc72", "cc122", "jq26", "jq30")),
    *(
        (name, FIND, "hybrid")
        for name in ("cc60", "cc64", "cc72", "cc78", "cc92", "cc108", "cc122", "jq26", "jq30")
    ),
)

#: ``decomp_parallel``: the refutations a 2-worker partition can finish in a
#: round plus finds on the largest cycles (an odd count, as above).  The gated
#: run keeps both workers on one core, where refuting cc48 alone is 3 s.
PARALLEL_OPS: tuple[tuple[str, str, str], ...] = (
    *((name, REFUTE, "parallel") for name in ("cc48", "cc108", "cc122")),
    *((name, FIND, "parallel") for name in ("cc48", "cc92", "cc108", "cc122")),
)

#: ``decomp_cached``: key templates; ``cc22`` is stored as a refutation so
#: negative entries (no certificate) sit beside positive ones.  Nine
#: templates: the median op is one of three that cost about the same.
CACHED_TEMPLATES: tuple[tuple[str, str], ...] = (
    ("path7", FIND),
    ("star8", FIND),
    ("cycle10", FIND),
    ("tri5", FIND),
    ("grid3x3", FIND),
    ("grid3x4", FIND),
    ("cc17", FIND),
    ("jq18", FIND),
    ("cc22", REFUTE),
)

#: service stream: fresh decompositions and the warm set of repeats.
FRESH_TEMPLATES = ("cc26", "cc28", "cc30", "cc31")
WARM_SET = ("cycle10", "tri5", "cc17", "jq18")


def decide_k(instance: str, kind: str) -> tuple[int, bool]:
    """``(k, expected success)`` of a refute/find op on ``instance``."""
    width = INSTANCES[instance][1]
    return (width - 1, False) if kind == REFUTE else (width, True)


def instance_text(instance: str, kind: str, tag: str, rng: random.Random | None) -> str:
    """HyperBench text of ``instance`` relabelled with ``tag``.

    Refutations are also shuffled when a seed is given; finds keep the
    committed order, because a shuffle changes a find's work by orders of
    magnitude (cc92 at k=3 under ``logk``: 1 s to a 20 s timeout).
    """
    edges = INSTANCES[instance][0]
    return hyperbench_text(relabel(edges, tag, rng, shuffle=kind == REFUTE))


# --------------------------------------------------------------------------- #
# conjunctive queries and databases
# --------------------------------------------------------------------------- #
#: shape -> (CQ text, answer mode of the shape's cold op)
QUERY_SHAPES: dict[str, tuple[str, str]] = {
    "chain3": ("ans(a,d) :- r1(a,b), r2(b,c), r3(c,d).", "count"),
    "triangle": ("ans(a,b,c) :- r1(a,b), r2(b,c), r3(c,a).", "enumerate"),
    "star3": ("ans(x,a,b) :- r1(x,a), r2(x,b), r3(x,c).", "boolean"),
    "cycle4tail": ("ans(a,c,e) :- r1(a,b), r2(b,c), r3(c,d), r4(d,a), r5(d,e).", "count"),
    "bowtie": (
        "ans(a,b,d) :- r1(a,b), r2(b,c), r3(c,a), r4(c,d), r5(d,e), r6(e,c).",
        "enumerate",
    ),
}
MODES = ("boolean", "count", "enumerate")
SERVICE_SHAPES = ("triangle", "star3", "cycle4tail", "bowtie")

#: Rows per relation and domain size.  The fan-out (rows / domain = 6) keeps
#: every bag far below 10^6 rows; a 6-cycle at 3000/500 was OOM-killed.
TUPLES_PER_RELATION = 1200
DOMAIN_SIZE = 200

#: shape -> (answer count, sha256 prefix of the sorted answer rows at seed 0).
#: Other seeds are isomorphic databases: the count holds for every seed.
QUERY_DIGESTS: dict[str, tuple[int, str]] = {
    "chain3": (23178, "0077622eaf037fcb"),
    "triangle": (185, "5c650bc1ffe322e9"),
    "star3": (7228, "a3dfc2919d1a3faa"),
    "cycle4tail": (6674, "b95bdcbca6a0d240"),
    "bowtie": (215, "adbd92d0e80ae317"),
}


def relation_names(query_text: str) -> list[str]:
    body = query_text.split(":-", 1)[1]
    return list(dict.fromkeys(part.split("(")[0].strip(" ,.") for part in body.split(")") if "(" in part))


def database_rows(shape: str, seed: int, tuples: int = TUPLES_PER_RELATION) -> dict[str, list[tuple[int, int]]]:
    """Binary relations for ``shape``: relation name -> row list.

    Seed 0 is the committed database.  Any other seed renames the domain
    values by a random permutation and shuffles the rows: an isomorphic
    database, so every join does the same work and every answer count is
    the committed one, while the answers themselves (and all encodings and
    hash orders) differ.
    """
    rng = random.Random(f"db:{shape}:{tuples}")
    relations = {
        name: sorted({(rng.randrange(DOMAIN_SIZE), rng.randrange(DOMAIN_SIZE)) for _ in range(tuples)})
        for name in relation_names(QUERY_SHAPES[shape][0])
    }
    if seed:
        rng = random.Random(f"db:{shape}:{seed}")
        rename = list(range(DOMAIN_SIZE))
        rng.shuffle(rename)
        for name, rows in relations.items():
            rows = [(rename[a], rename[b]) for a, b in rows]
            rng.shuffle(rows)
            relations[name] = rows
    return relations
