"""Permutation representation graphs.

An r-edge-labelled multigraph on n vertices encodes an sggi: label i carries
an edge {a,b} exactly when generator i swaps a and b.  Validation enforces
the three structural facts that make the encoding work: each label is a
partial matching, every label occurs, and for non-adjacent labels the only
components larger than an edge are alternating squares (which is precisely
the commuting property on the induced involutions).
"""

from __future__ import annotations

from .perms import Permutation
from .sggi import Sggi


class GraphError(ValueError):
    """Structurally invalid graph or malformed DSL text."""


class PRGraph:
    """Validated edge-labelled multigraph; edges sorted by (label, u, v)."""

    __slots__ = ("vertices", "rank", "edges")

    def __init__(self, vertices, rank, edges):
        edges = tuple(sorted(_normalize_edge(e, vertices, rank) for e in edges))
        _validate(vertices, rank, edges)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("PRGraph is immutable")

    def edges_with_label(self, label):
        return [(u, v) for (lbl, u, v) in self.edges if lbl == label]

    def __eq__(self, other):
        return (
            isinstance(other, PRGraph)
            and (self.vertices, self.rank, self.edges)
            == (other.vertices, other.rank, other.edges)
        )

    def __hash__(self):
        return hash((self.vertices, self.rank, self.edges))

    def __repr__(self):
        return f"PRGraph(n={self.vertices}, rank={self.rank}, edges={len(self.edges)})"


def _normalize_edge(edge, n, rank):
    label, u, v = edge
    if not 0 <= label < rank:
        raise GraphError(f"label {label} outside 0..{rank - 1}")
    if not (1 <= u <= n and 1 <= v <= n):
        raise GraphError(f"edge ({u},{v}) has a vertex outside 1..{n}")
    if u == v:
        raise GraphError(f"loop at vertex {u} not allowed")
    return (label, min(u, v), max(u, v))


def _validate(n, rank, edges):
    by_label = {}
    for lbl, u, v in edges:
        by_label.setdefault(lbl, []).append((u, v))
    for lbl in range(rank):
        if lbl not in by_label:
            raise GraphError(f"label {lbl} occurs on no edge (identity generator)")
    for lbl, pairs in by_label.items():
        incident = set()
        for u, v in pairs:
            for x in (u, v):
                if x in incident:
                    raise GraphError(
                        f"label {lbl} is not a matching: vertex {x} has two "
                        f"{lbl}-edges"
                    )
                incident.add(x)
    for i in range(rank):
        for j in range(i + 2, rank):
            _check_squares(n, i, j, by_label[i], by_label[j])


def _check_squares(n, i, j, edges_i, edges_j):
    # Components of the {i,j}-subgraph with more than two vertices must be
    # squares with alternating labels.
    adj = {}
    for lbl, pairs in ((i, edges_i), (j, edges_j)):
        for u, v in pairs:
            adj.setdefault(u, []).append((v, lbl))
            adj.setdefault(v, []).append((u, lbl))
    seen = set()
    for start in sorted(adj):
        if start in seen:
            continue
        component = [start]
        seen.add(start)
        queue = [start]
        while queue:
            x = queue.pop()
            for y, _ in adj[x]:
                if y not in seen:
                    seen.add(y)
                    component.append(y)
                    queue.append(y)
        if len(component) <= 2:
            continue
        degrees_ok = len(component) == 4 and all(
            sorted(lbl for _, lbl in adj[x]) == [i, j] for x in component
        )
        if not degrees_ok:
            raise GraphError(
                f"labels {{{i},{j}}} are non-adjacent but their subgraph has a "
                f"component on vertices {sorted(component)} that is not an "
                f"alternating square"
            )


def graph_to_sggi(g: PRGraph) -> Sggi:
    """Generator i = the product of transpositions over the i-edges."""
    gens = []
    for lbl in range(g.rank):
        pairs = g.edges_with_label(lbl)
        gens.append(
            Permutation.from_cycles([list(p) for p in pairs], g.vertices)
        )
    return Sggi(gens, strict=False)


def sggi_to_graph(s: Sggi) -> PRGraph:
    """Exact inverse of graph_to_sggi for involution generators."""
    edges = []
    for lbl, gen in enumerate(s.gens):
        for u, v in gen.cycles():
            edges.append((lbl, u, v))
    return PRGraph(s.degree, s.rank, edges)


def is_connected(g: PRGraph) -> bool:
    adj = {v: [] for v in range(1, g.vertices + 1)}
    for _, u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    queue = [1]
    while queue:
        x = queue.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == g.vertices


# ---------------------------------------------------------------------------
# DSL: header "prg <n> <r>"; records "<label> <u> <v>" where <label> is an
# integer or "{i,j,...}" (a J-edge, expanding to one parallel edge per
# label); records separated by newlines or "/"; "#" starts a comment.
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> PRGraph:
    records = []
    for chunk in text.replace("/", "\n").splitlines():
        chunk = chunk.split("#", 1)[0].strip()
        if chunk:
            records.append(chunk)
    if not records:
        raise GraphError("empty graph text")
    header = records[0].split()
    if len(header) != 3 or header[0] != "prg":
        raise GraphError("header must be 'prg <n> <r>'")
    try:
        n, rank = int(header[1]), int(header[2])
    except ValueError as exc:
        raise GraphError("header must be 'prg <n> <r>'") from exc
    if n < 1 or rank < 1:
        raise GraphError("need n >= 1 and r >= 1")
    edges = []
    for record in records[1:]:
        edges.extend(_parse_edge_record(record, rank))
    return PRGraph(n, rank, edges)


def _parse_edge_record(record, rank):
    parts = record.split()
    if len(parts) != 3:
        raise GraphError(f"edge record {record!r} is not '<label> <u> <v>'")
    raw_label, raw_u, raw_v = parts
    try:
        u, v = int(raw_u), int(raw_v)
    except ValueError as exc:
        raise GraphError(f"bad vertex in record {record!r}") from exc
    if raw_label.startswith("{"):
        if not raw_label.endswith("}"):
            raise GraphError(f"unterminated label set in {record!r}")
        try:
            labels = [int(tok) for tok in raw_label[1:-1].split(",")]
        except ValueError as exc:
            raise GraphError(f"bad label set in {record!r}") from exc
    else:
        try:
            labels = [int(raw_label)]
        except ValueError as exc:
            raise GraphError(f"bad label in {record!r}") from exc
    return [(lbl, u, v) for lbl in labels]


def emit_dsl(g: PRGraph) -> str:
    """Canonical DSL text: one edge per line, J-edges re-bundled."""
    bundles = {}
    for lbl, u, v in g.edges:
        bundles.setdefault((u, v), []).append(lbl)
    lines = [f"prg {g.vertices} {g.rank}"]
    for (u, v), labels in sorted(bundles.items(), key=lambda kv: (min(kv[1]), kv[0])):
        labels.sort()
        if len(labels) == 1:
            lines.append(f"{labels[0]} {u} {v}")
        else:
            lines.append("{" + ",".join(map(str, labels)) + "}" + f" {u} {v}")
    return "\n".join(lines) + "\n"


def emit_dot(g: PRGraph) -> str:
    """DOT text with one node line per vertex and one edge line per edge."""
    lines = ["graph prgraph {"]
    for v in range(1, g.vertices + 1):
        lines.append(f"  v{v};")
    for lbl, u, v in g.edges:
        lines.append(f'  v{u} -- v{v} [label="{lbl}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Canonical form under vertex renaming: the standardised numbering of a coset
# table (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
# 2005).  nbr[v][l] is v's partner under label l, or v itself when l fixes v;
# each label is a matching, so this is well defined.  A component numbered
# breadth-first from a start vertex, scanning labels in order, is read as
# the table number[nbr[x][l]] over x in numbering order and l in 0..r-1; the
# least table over all start vertices is the component's canonical form.
# An isomorphism carries the numbering from v to the numbering from v's
# image, so isomorphic components have equal least tables.  Equal tables
# compose into an isomorphism (the i-th vertex of one numbering to the i-th
# of the other), so equal least tables mean isomorphic components.  The
# graph's form lists the sorted (component size, least table) pairs.
# ---------------------------------------------------------------------------


def _table(nbr, start):
    number = {start: 0}
    order = [start]
    table = []
    for x in order:
        for y in nbr[x]:
            if y not in number:
                number[y] = len(order)
                order.append(y)
            table.append(number[y])
    return tuple(table), order


def canonical_form(g: PRGraph):
    nbr = [[v] * g.rank for v in range(g.vertices + 1)]
    for lbl, u, v in g.edges:
        nbr[u][lbl] = v
        nbr[v][lbl] = u
    seen = set()
    components = []
    for start in range(1, g.vertices + 1):
        if start in seen:
            continue
        _, comp = _table(nbr, start)
        seen.update(comp)
        components.append((len(comp), min(_table(nbr, v)[0] for v in comp)))
    return (g.vertices, g.rank, tuple(sorted(components)))


def isomorphic(a: PRGraph, b: PRGraph) -> bool:
    """Label-preserving isomorphism: equal canonical forms, an exact test."""
    return canonical_form(a) == canonical_form(b)


__all__ = [
    "PRGraph",
    "GraphError",
    "graph_to_sggi",
    "sggi_to_graph",
    "is_connected",
    "parse_graph",
    "emit_dsl",
    "emit_dot",
    "canonical_form",
    "isomorphic",
]
