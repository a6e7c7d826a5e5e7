"""Permutation representation graphs.

An r-edge-labelled multigraph on n vertices encodes an sggi: label i carries
an edge {a,b} exactly when generator i swaps a and b.  A graph keeps those
involutions as image tuples, and validation checks the three structural
facts that make the encoding work on them: every label occurs, each label
is a partial matching, and the involutions of non-adjacent labels commute
(so the components of their two-label subgraph are edges and alternating
squares).
"""

from __future__ import annotations

from .perms import Permutation
from .sggi import Sggi


class GraphError(ValueError):
    """Structurally invalid graph or malformed DSL text."""


class PRGraph:
    """Validated edge-labelled multigraph; edges sorted by (label, u, v).

    images[l] is label l's involution as a 0-based image tuple: v - 1 goes
    to u - 1 for every l-edge {u, v}, and every other point is fixed.
    """

    __slots__ = ("vertices", "rank", "edges", "images")

    def __init__(self, vertices, rank, edges):
        edges = tuple(sorted(_normalize_edge(e, vertices, rank) for e in edges))
        images = _involutions(vertices, rank, edges)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("PRGraph is immutable")

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


def _involutions(n, rank, edges):
    """The image tuple of each label, checking in turn that every label
    occurs, that each label is a matching and that non-adjacent labels
    commute."""
    missing = set(range(rank)).difference(lbl for lbl, _, _ in edges)
    if missing:
        raise GraphError(
            f"label {min(missing)} occurs on no edge (identity generator)")
    images = [list(range(n)) for _ in range(rank)]
    for lbl, u, v in edges:
        image = images[lbl]
        for x in (u, v):
            if image[x - 1] != x - 1:
                raise GraphError(
                    f"label {lbl} is not a matching: vertex {x} has two "
                    f"{lbl}-edges"
                )
        image[u - 1], image[v - 1] = v - 1, u - 1
    images = tuple(map(tuple, images))
    for i in range(rank):
        for j in range(i + 2, rank):
            a, b = images[i], images[j]
            for x in range(n):
                if a[b[x]] != b[a[x]]:
                    raise GraphError(
                        f"labels {{{i},{j}}} are non-adjacent but do not "
                        f"commute at vertex {x + 1}"
                    )
    return images


def graph_to_sggi(g: PRGraph) -> Sggi:
    """Generator i swaps the ends of every i-edge."""
    return Sggi([Permutation(images) for images in g.images], strict=False)


def sggi_to_graph(s: Sggi) -> PRGraph:
    """Exact inverse of graph_to_sggi for involution generators."""
    edges = []
    for lbl, gen in enumerate(s.gens):
        for u, v in gen.cycles():
            edges.append((lbl, u, v))
    return PRGraph(s.degree, s.rank, edges)


def is_connected(g: PRGraph) -> bool:
    """One component: the generated group is transitive."""
    return orbit_count(g.images) == 1


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
# 2005).  The form is read off the generator images: nbr[v][l] = images[l][v]
# is v's partner under label l, or v itself when l fixes v.  A component
# numbered breadth-first from a start vertex, scanning labels in order, is
# read as the table number[nbr[x][l]] over x in numbering order and l in
# 0..r-1; the least table over all start vertices is the component's
# canonical form.  An isomorphism carries the numbering from v to the
# numbering from v's image, so isomorphic components have equal least
# tables.  Equal tables compose into an isomorphism (the i-th vertex of one
# numbering to the i-th of the other), so equal least tables mean isomorphic
# components.  The form lists the sorted (component size, least table)
# pairs; the components are the orbits of the generated group.
#
# The least table is grown one row at a time over all start vertices
# together.  Row i of a table is the r numbers of its i-th vertex's
# neighbours, so every row has exactly r entries and every table of a
# component has one row per vertex: comparing two tables is comparing their
# rows in order.  After row i only the starts whose row i is the least row i
# among the starts still kept are kept.  A start dropped at row i agrees
# with a kept start on rows 0..i-1 and is larger at row i, so its table is
# larger and can never be least; the kept starts share the least rows so
# far.  The table the last kept starts share is the minimum over every
# start.
#
# The dedup key of a tuple is the smaller of its form and its dual's, the
# form of the reversed tuple.  Reversing the tuple reverses each neighbour
# row nbr[v] and leaves the components as they are.  When the graph is
# connected both forms are (n, r, ((n, table),)), so the smaller form is
# the one with the smaller least table, and that is the least table over
# the 2n (start vertex, label order) pairs: the same row-by-row pass finds
# it over all 2n at once.
# ---------------------------------------------------------------------------


def _components(nbr):
    """The vertices of each component, in breadth-first order from its
    least vertex."""
    seen = set()
    components = []
    for start in range(len(nbr)):
        if start in seen:
            continue
        seen.add(start)
        order = [start]
        for x in order:
            for y in nbr[x]:
                if y not in seen:
                    seen.add(y)
                    order.append(y)
        components.append(order)
    return components


def _least_table(starts, size):
    """The least numbering table over the (neighbour rows, start vertex)
    pairs in starts, all of one component of size vertices."""
    numberings = []
    for nbr, v in starts:
        number = [-1] * len(nbr)
        number[v] = 0
        numberings.append((nbr, number, [v]))
    table = []
    for i in range(size):
        least = None
        kept = []
        for numbering in numberings:
            nbr, number, order = numbering
            row = []
            for y in nbr[order[i]]:
                k = number[y]
                if k < 0:
                    k = number[y] = len(order)
                    order.append(y)
                row.append(k)
            if least is None or row < least:
                least = row
                kept = [numbering]
            elif row == least:
                kept.append(numbering)
        numberings = kept
        table += least
    return tuple(table)


def orbit_count(images):
    """Number of orbits of the group generated by the image tuples, one per
    label: the components of their graph, found by one graph search."""
    return len(_components(list(zip(*images))))


def involution_form(images):
    """Canonical form of the graph of involutions given as image tuples,
    one per label; the dual's form is involution_form(images[::-1])."""
    nbr = list(zip(*images))
    components = sorted(
        (len(comp), _least_table([(nbr, v) for v in comp], len(comp)))
        for comp in _components(nbr))
    return (len(nbr), len(images), tuple(components))


def involution_key(images):
    """min(involution_form(images), involution_form(images[::-1])): equal
    exactly for tuples conjugate in Sym(n), directly or after reversal."""
    nbr = list(zip(*images))
    if len(_components(nbr)) != 1:
        return min(involution_form(images), involution_form(images[::-1]))
    n = len(nbr)
    rev = [row[::-1] for row in nbr]
    starts = [(nbr, v) for v in range(n)] + [(rev, v) for v in range(n)]
    return (n, len(images), ((n, _least_table(starts, n)),))


def canonical_form(g: PRGraph):
    """The involution_form of the graph's generators."""
    return involution_form(g.images)


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
    "involution_form",
    "involution_key",
    "orbit_count",
]
