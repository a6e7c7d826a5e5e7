"""The graph-family catalog.

Each descriptor turns a figure template into a concrete edge-labelled graph
for admissible parameters.  Two-row figures number the top row 1..n/2 left to
right and the bottom row n/2+1..n, so column j is the pair {j, j+n/2};
single-row figures number 1..n left to right.  Ellipses expand to repeated
interior columns; a bracketed label set on a vertical is a J-edge (one
parallel edge per label).

Tables T4..T8 cover the imprimitive rank >= n/2 families (T4 additionally
contains the four rank-(n/2+1) representation graphs, two per maximal-rank
polytope); HIGHC holds the two high-rank single-row graphs, REP2N the two
transitive 2n-point representations of Sym_n, and P61 the two block-count-2
representations of C2 x Sym_{n/2} (aliases of T8#1 and T8#2 with their own
catalog identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .prgraph import PRGraph, canonical_form, involution_form

# Unused here, but bench/tracing.py patches stringc.families by these names.
from .prgraph import graph_to_sggi, sggi_to_graph  # noqa: F401


class FamilyDomainError(ValueError):
    """Parameters outside a family's admissible domain."""


class _Rows:
    """Edge accumulator for two-row figures with m columns."""

    def __init__(self, m):
        self.m = m
        self.edges = []

    def vert(self, j, labels):
        for lbl in labels:
            self.edges.append((lbl, j, j + self.m))

    def htop(self, p, label):
        self.edges.append((label, p, p + 1))

    def hbot(self, p, label):
        self.edges.append((label, p + self.m, p + 1 + self.m))

    def hboth(self, p, label):
        self.htop(p, label)
        self.hbot(p, label)


def _punct(rank, holes):
    return sorted(set(range(rank)) - set(holes))


@dataclass(frozen=True)
class ParamSpec:
    name: str
    domain_text: str
    values: object  # callable: table degree n -> list of admissible values


@dataclass(frozen=True)
class FamilyDescriptor:
    table: str
    number: int
    case_tags: str
    params: tuple
    build: object  # callable: (n, params) -> PRGraph
    rank_for: object  # callable: n -> rank
    domain_error: object  # callable: n -> error message or None
    points_per_n: int = 1  # the graph at n has points_per_n * n vertices
    expected: dict = field(default_factory=dict)

    @property
    def id(self):
        return f"{self.table}#{self.number}"

    def check_domain(self, n, params):
        message = self.domain_error(n)
        if message:
            raise FamilyDomainError(f"{self.id}: {message}")
        wanted = {p.name for p in self.params}
        given = set(params)
        if wanted != given:
            raise FamilyDomainError(
                f"{self.id}: requires parameters {sorted(wanted)}, got "
                f"{sorted(given)}"
            )
        for spec in self.params:
            if params[spec.name] not in spec.values(n):
                raise FamilyDomainError(
                    f"{self.id}: {spec.name}={params[spec.name]} outside "
                    f"domain ({spec.domain_text})"
                )

    def instantiate(self, n, params=None):
        params = dict(params or {})
        self.check_domain(n, params)
        return self.build(n, params)

    def param_sweep(self, n):
        """All admissible parameter dicts at this degree."""
        if self.domain_error(n):
            return []
        if not self.params:
            return [{}]
        spec = self.params[0]  # at most one extra parameter per family
        return [{spec.name: v} for v in spec.values(n)]


def _even_degree(minimum_half):
    def check(n):
        if n % 2 != 0:
            return f"requires even degree n, got {n}"
        if n // 2 < minimum_half:
            return f"requires n/2 >= {minimum_half}, got n/2 = {n // 2}"
        return None

    return check


def _even_degree_odd_half(minimum_half):
    base = _even_degree(minimum_half)

    def check(n):
        message = base(n)
        if message:
            return message
        if (n // 2) % 2 == 0:
            return f"requires n/2 odd, got n/2 = {n // 2}"
        return None

    return check


def _min_degree(minimum):
    def check(n):
        if n < minimum:
            return f"requires n >= {minimum}, got {n}"
        return None

    return check


# ---------------------------------------------------------------------------
# Table 4: k=2, |R u C| = 2, n/2 odd.  Graphs (1),(2),(7),(8) have rank
# n/2+1 (the two maximal-rank polytopes, intransitive and transitive <L>
# representations); the rest have rank n/2.
# ---------------------------------------------------------------------------


def _t4_1(n, params):
    m = n // 2
    r = m + 1
    g = _Rows(m)
    g.vert(1, [0])
    for j in range(2, m + 1):
        g.vert(j, [0, 1])
    for p in range(1, m):
        g.hboth(p, p + 1)
    return PRGraph(n, r, g.edges)


def _t4_2(n, params):
    m = n // 2
    r = m + 1
    g = _Rows(m)
    for j in range(1, m):
        g.vert(j, [0, r - 1])
    g.vert(m, [0])
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t4_3(n, params):
    m = r = n // 2
    g = _Rows(m)
    g.vert(1, [0, 1])
    g.vert(2, [0, 1])
    for j in range(3, m + 1):
        g.vert(j, [0])
    g.hboth(1, 3)
    g.hboth(2, 2)
    for p in range(3, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t4_4(n, params):
    m = r = n // 2
    g = _Rows(m)
    for j in range(1, m):
        g.vert(j, [0, r - 1])
    g.vert(m, [0])
    g.hboth(1, 2)
    g.hboth(2, 1)
    for p in range(3, m):
        g.hboth(p, p - 1)
    return PRGraph(n, r, g.edges)


def _t4_5(n, params):
    m = r = n // 2
    g = _Rows(m)
    g.vert(1, [0])
    for j in range(2, m + 1):
        g.vert(j, [0, 1])
    for p in range(1, r - 2):
        g.hboth(p, p + 1)
    g.hboth(r - 2, r - 1)
    g.hboth(r - 1, r - 2)
    return PRGraph(n, r, g.edges)


def _t4_6(n, params):
    m = r = n // 2
    g = _Rows(m)
    for j in range(1, m - 1):
        g.vert(j, [0])
    g.vert(m - 1, [0, r - 1])
    g.vert(m, [0, r - 1])
    for p in range(1, r - 1):
        g.hboth(p, p)
    g.hboth(r - 1, r - 3)
    return PRGraph(n, r, g.edges)


def _t4_7(n, params):
    m = n // 2
    r = m + 1
    g = _Rows(m)
    g.vert(1, _punct(r, {1, 2}))
    for j in range(2, m + 1):
        g.vert(j, _punct(r, {j, j + 1}))
    for p in range(1, m):
        g.hboth(p, p + 1)
    return PRGraph(n, r, g.edges)


def _t4_8(n, params):
    m = n // 2
    r = m + 1
    g = _Rows(m)
    g.vert(1, _punct(r, {1}))
    for j in range(2, m + 1):
        g.vert(j, _punct(r, {j - 1, j}))
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t4_9(n, params):
    m = r = n // 2
    g = _Rows(m)
    g.vert(1, _punct(r, {3}))
    g.vert(2, _punct(r, {2, 3}))
    for j in range(3, m + 1):
        g.vert(j, _punct(r, {1, 3, j - 1, j}))
    g.hboth(1, 3)
    g.hboth(2, 2)
    for p in range(3, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t4_10(n, params):
    m = r = n // 2
    g = _Rows(m)
    g.vert(1, _punct(r, {2}))
    g.vert(2, _punct(r, {1, 2}))
    for j in range(3, m + 1):
        g.vert(j, _punct(r, {2, j - 2, j - 1}))
    g.hboth(1, 2)
    g.hboth(2, 1)
    for p in range(3, m):
        g.hboth(p, p - 1)
    return PRGraph(n, r, g.edges)


def _t4_11(n, params):
    m = r = n // 2
    g = _Rows(m)
    g.vert(1, _punct(r, {1, 2, r - 2}))
    for j in range(2, m + 1):
        g.vert(j, _punct(r, {j, j + 1, r - 2}))
    for p in range(1, r - 2):
        g.hboth(p, p + 1)
    g.hboth(r - 2, r - 1)
    g.hboth(r - 1, r - 2)
    return PRGraph(n, r, g.edges)


def _t4_12(n, params):
    m = r = n // 2
    g = _Rows(m)
    g.vert(1, _punct(r, {1, r - 3, r - 1}))
    for j in range(2, r - 1):
        g.vert(j, _punct(r, {j - 1, j, r - 3, r - 1}))
    g.vert(r - 1, _punct(r, {r - 3, r - 2}))
    g.vert(r, _punct(r, {r - 3}))
    for p in range(1, r - 1):
        g.hboth(p, p)
    g.hboth(r - 1, r - 3)
    return PRGraph(n, r, g.edges)


# ---------------------------------------------------------------------------
# Table 5: k=2, |R u C| = 1, <L> isomorphic to Sym_{n/2}.
# ---------------------------------------------------------------------------


def _t5_13(n, params):
    m = r = n // 2
    g = _Rows(m)
    g.vert(1, [0])
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t5_14(n, params):
    m = r = n // 2
    g = _Rows(m)
    for j in range(2, m + 1):
        g.vert(j, [0])
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t5_15(n, params):
    m = r = n // 2
    g = _Rows(m)
    g.vert(1, _punct(r, {1}))
    for j in range(2, m + 1):
        g.vert(j, _punct(r, {0, j - 1, j}))
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t5_16(n, params):
    m = r = n // 2
    g = _Rows(m)
    g.vert(1, _punct(r, {0, 1}))
    for j in range(2, m + 1):
        g.vert(j, _punct(r, {j - 1, j}))
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


# ---------------------------------------------------------------------------
# Table 6: k=2, |R u C| = 1, <L> not Sym_{n/2}, kernel C2.  Graphs 17-20
# carry the interior index i of the unique nontrivial delta; 21-24 are the
# boundary cases i=1 and i=r-2.
# ---------------------------------------------------------------------------


def _t6_17(n, params):
    m = r = n // 2
    i = params["i"]
    g = _Rows(m)
    low = set(range(i + 1))
    g.vert(1, sorted(low - {0, 1}))
    for j in range(2, m + 1):
        g.vert(j, sorted(low - {j - 1, j}))
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t6_18(n, params):
    m = r = n // 2
    i = params["i"]
    g = _Rows(m)
    low = set(range(i + 1))
    g.vert(1, sorted(low - {1}))
    for j in range(2, m + 1):
        g.vert(j, sorted(low - {0, j - 1, j}))
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t6_19(n, params):
    m = r = n // 2
    i = params["i"]
    g = _Rows(m)
    high = set(range(i + 1, r))
    g.vert(1, sorted(high))
    for j in range(2, i + 1):
        g.vert(j, sorted(high | {0}))
    for j in range(i + 1, m + 1):
        g.vert(j, sorted((high - {j - 1, j}) | {0}))
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t6_20(n, params):
    m = r = n // 2
    i = params["i"]
    g = _Rows(m)
    high = set(range(i + 1, r))
    g.vert(1, sorted(high | {0}))
    for j in range(2, i + 1):
        g.vert(j, sorted(high))
    for j in range(i + 1, m + 1):
        g.vert(j, sorted(high - {j - 1, j}))
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t6_21(n, params):
    m = r = n // 2
    g = _Rows(m)
    g.vert(1, [0])
    for j in range(3, m + 1):
        g.vert(j, [1])
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t6_22(n, params):
    m = r = n // 2
    g = _Rows(m)
    g.vert(2, [0])
    for j in range(3, m + 1):
        g.vert(j, [0, 1])
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t6_23(n, params):
    m = r = n // 2
    g = _Rows(m)
    g.vert(1, [0, r - 1])
    for j in range(2, m - 1):
        g.vert(j, [r - 1])
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t6_24(n, params):
    m = r = n // 2
    g = _Rows(m)
    g.vert(1, [r - 1])
    for j in range(2, m - 1):
        g.vert(j, [0, r - 1])
    g.vert(m - 1, [0])
    g.vert(m, [0])
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


# ---------------------------------------------------------------------------
# Table 7: k=2, |R u C| = 1, kernel (C2)^{n/2-1}; n/2 odd, nontrivial
# deltas exactly at x and x+1.
# ---------------------------------------------------------------------------


def _t7_25(n, params):
    m = r = n // 2
    x = params["x"]
    g = _Rows(m)
    for j in range(1, x + 1):
        g.vert(j, [0, x + 1])
    for j in range(x + 1, m + 1):
        g.vert(j, [0])
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t7_26(n, params):
    m = r = n // 2
    x = params["x"]
    g = _Rows(m)
    g.vert(1, _punct(r, {1, x + 1}))
    for j in range(2, x + 1):
        g.vert(j, _punct(r, {j - 1, j, x + 1}))
    for j in range(x + 1, m + 1):
        g.vert(j, _punct(r, {j - 1, j}))
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t7_27(n, params):
    m = r = n // 2
    x = params["x"]
    g = _Rows(m)
    for j in range(1, x + 3):
        g.vert(j, [0])
    for j in range(x + 3, m + 1):
        g.vert(j, [0, x + 1])
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t7_28(n, params):
    m = r = n // 2
    x = params["x"]
    g = _Rows(m)
    g.vert(1, _punct(r, {1}))
    for j in range(2, x + 3):
        g.vert(j, _punct(r, {j - 1, j}))
    for j in range(x + 3, m + 1):
        g.vert(j, _punct(r, {x + 1, j - 1, j}))
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


# ---------------------------------------------------------------------------
# Table 8: m=2 (two blocks of size n/2).
# ---------------------------------------------------------------------------


def _t8_1(n, params):
    m = r = n // 2
    g = _Rows(m)
    for j in range(1, m + 1):
        g.vert(j, [0])
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t8_2(n, params):
    m = r = n // 2
    g = _Rows(m)
    g.vert(1, _punct(r, {1}))
    for j in range(2, m + 1):
        g.vert(j, _punct(r, {j - 1, j}))
    for p in range(1, m):
        g.hboth(p, p)
    return PRGraph(n, r, g.edges)


def _t8_3(n, params):
    m = r = n // 2
    g = _Rows(m)
    for j in range(1, m + 1):
        g.vert(j, [0])
    for p in range(2, m):
        g.htop(p, p)
    for p in range(1, m):
        g.hbot(p, p)
    return PRGraph(n, r, g.edges)


def _t8_4(n, params):
    m = r = n // 2
    i = params["i"]
    g = _Rows(m)
    for j in range(1, m + 1):
        g.vert(j, [i])
    for p in range(1, i + 1):
        g.htop(p, p - 1)
    for p in range(i + 2, m):
        g.htop(p, p)
    for p in range(1, i):
        g.hbot(p, p - 1)
    for p in range(i + 1, m):
        g.hbot(p, p)
    return PRGraph(n, r, g.edges)


def _t8_5(n, params):
    m = r = n // 2
    g = _Rows(m)
    for j in range(1, m + 1):
        g.vert(j, [1])
    g.htop(1, 0)
    g.htop(1, 2)
    for p in range(3, m):
        g.htop(p, p)
    for p in range(2, m):
        g.hbot(p, p)
    return PRGraph(n, r, g.edges)


def _t8_6(n, params):
    m = r = n // 2
    g = _Rows(m)
    for j in range(1, m + 1):
        g.vert(j, [1])
    g.htop(1, 0)
    g.htop(1, 3)
    for p in range(3, m):
        g.htop(p, p)
    g.hbot(1, 3)
    g.hbot(2, 2)
    g.hbot(3, 3)
    for p in range(4, m):
        g.hbot(p, p)
    return PRGraph(n, r, g.edges)


def _t8_7(n, params):
    m = r = n // 2
    g = _Rows(m)
    for j in range(1, m + 1):
        g.vert(j, [1])
    g.htop(1, 0)
    g.htop(1, 2)
    g.htop(1, 3)
    for p in range(3, m):
        g.htop(p, p)
    g.hbot(1, 3)
    g.hbot(2, 2)
    g.hbot(3, 3)
    for p in range(4, m):
        g.hbot(p, p)
    return PRGraph(n, r, g.edges)


# ---------------------------------------------------------------------------
# High-rank single-row graphs (rank n-1 and, up to duality, rank n-2).
# ---------------------------------------------------------------------------


def _path_graph(n, labels):
    edges = [(lbl, p, p + 1) for p, lbl in enumerate(labels, start=1)]
    return PRGraph(n, max(labels) + 1, edges)


def _highc_1(n, params):
    return _path_graph(n, list(range(n - 1)))


def _highc_2(n, params):
    return _path_graph(n, [1, 0, 1] + list(range(2, n - 2)))


# ---------------------------------------------------------------------------
# Transitive representations of Sym_n on 2n points, ranks n-1 and n-2.
# Verticals carry every label whose generator has no horizontal edge at
# that column (and, for the rank n-2 graph, never label 1: its generator is
# the two horizontal pairs only).
# ---------------------------------------------------------------------------


def _rep2n_1(n, params):
    m = n
    r = n - 1
    g = _Rows(m)
    for p in range(1, m):
        g.hboth(p, p - 1)
    for j in range(1, m + 1):
        g.vert(j, _punct(r, {j - 2, j - 1}))
    return PRGraph(2 * n, r, g.edges)


def _rep2n_2(n, params):
    m = n
    r = n - 2
    g = _Rows(m)
    labels = [1, 0, 1] + list(range(2, n - 2))
    for p, lbl in enumerate(labels, start=1):
        g.hboth(p, lbl)
    g.vert(1, _punct(r, {1}))
    g.vert(2, _punct(r, {0, 1}))
    g.vert(3, _punct(r, {0, 1}))
    g.vert(4, _punct(r, {1, 2}))
    for j in range(5, m + 1):
        g.vert(j, _punct(r, {1, j - 3, j - 2}))
    return PRGraph(2 * n, r, g.edges)


# ---------------------------------------------------------------------------
# Catalog assembly.
# ---------------------------------------------------------------------------


def _interior_i(lo_offset, hi_offset):
    def values(n):
        r = n // 2
        return list(range(lo_offset, r + hi_offset + 1))

    return values


def _x_values(parity):
    def values(n):
        r = n // 2
        return [x for x in range(1, r - 2) if x % 2 == parity]

    return values


def _table_rank(n):
    return n // 2


def _table_rank_plus1(n):
    return n // 2 + 1


_T4_TAGS_INTR = "|RuC|=2; <L>=Sym(n/2); <L> intransitive"
_T4_TAGS_TR = "|RuC|=2; <L>=Sym(n/2); <L> transitive"
_T5_TAGS_INTR = "|RuC|=1; <L>=Sym(n/2); <L> intransitive"
_T5_TAGS_TR = "|RuC|=1; <L>=Sym(n/2); <L> transitive"
_T6_TAGS = "|RuC|=1; <L>/=Sym(n/2); Ker(f)=C2"
_T7_TAGS_EVEN = "|RuC|=1; <L>/=Sym(n/2); Ker(f)/=C2; x even and n/2 odd"
_T7_TAGS_ODD = "|RuC|=1; <L>/=Sym(n/2); Ker(f)/=C2; x odd and n/2 odd"


def _descriptor(table, number, tags, build, rank_for=_table_rank,
                points_per_n=1, domain=None, params=(), expected=None):
    return FamilyDescriptor(
        table=table,
        number=number,
        case_tags=tags,
        params=tuple(params),
        build=build,
        rank_for=rank_for,
        domain_error=domain or _even_degree(7),
        points_per_n=points_per_n,
        expected=dict(expected or {}),
    )


# The claims the paper states for each family, by name.  verify_instance
# runs the checks of the claims a descriptor states and compares with these
# values:
#   blocks        "k2": n/2 column blocks of size 2; "m2": 2 blocks of n/2
#   lcr           rank -> (|L|, |C|, |R|)
#   kernel_g0     class of G_0's kernel on the column blocks
#   u_index       (rank, params) -> the one i with delta_i = U
#   delta_window  (rank, params) -> the i with delta_i nontrivial
#   rho0          rho_0's kernel vector along the block path
#   order         "2*(n/2)!" or "n!" (bench/workloads.py reads this tag)
#   schlafli      the entries before the run of 3s
_T4_CLAIMS = {"blocks": "k2", "lcr": lambda r: (r - 2, 1, 1)}
_T5_CLAIMS = {"blocks": "k2", "lcr": lambda r: (r - 1, 0, 1)}
# rho_0 of the T7 families is the central all-swap, so it sits in C.
_T7_CLAIMS = {"blocks": "k2", "lcr": lambda r: (r - 1, 1, 0),
              "kernel_g0": "C2^(m-1)",
              "delta_window": lambda r, p: [p["x"], p["x"] + 1],
              "rho0": "U"}
_C2_X_SYM_CLAIMS = {"blocks": "m2", "lcr": lambda r: (1, r - 1, 0),
                    "order": "2*(n/2)!", "schlafli": (2,)}
_T8_3_CLAIMS = {"blocks": "m2", "lcr": lambda r: (1, r - 2, 1)}
_T8_4_CLAIMS = {"blocks": "m2", "lcr": lambda r: (1, r - 3, 2)}
_RANK_N_1_CLAIMS = {"order": "n!", "schlafli": ()}
_RANK_N_2_CLAIMS = {"order": "n!", "schlafli": (4, 6)}


def _t6_claims(rho0, u_index):
    return {**_T5_CLAIMS, "kernel_g0": "C2", "u_index": u_index, "rho0": rho0}


def _build_catalog():
    odd_half = _even_degree_odd_half(7)
    t4 = []
    for number, build, tags, rank_for in [
        (1, _t4_1, _T4_TAGS_INTR, _table_rank_plus1),
        (2, _t4_2, _T4_TAGS_INTR, _table_rank_plus1),
        (3, _t4_3, _T4_TAGS_INTR, _table_rank),
        (4, _t4_4, _T4_TAGS_INTR, _table_rank),
        (5, _t4_5, _T4_TAGS_INTR, _table_rank),
        (6, _t4_6, _T4_TAGS_INTR, _table_rank),
        (7, _t4_7, _T4_TAGS_TR, _table_rank_plus1),
        (8, _t4_8, _T4_TAGS_TR, _table_rank_plus1),
        (9, _t4_9, _T4_TAGS_TR, _table_rank),
        (10, _t4_10, _T4_TAGS_TR, _table_rank),
        (11, _t4_11, _T4_TAGS_TR, _table_rank),
        (12, _t4_12, _T4_TAGS_TR, _table_rank),
    ]:
        t4.append(
            _descriptor(
                "T4", number, tags, build, rank_for=rank_for, domain=odd_half,
                expected=_T4_CLAIMS,
            )
        )

    t5 = [
        _descriptor("T5", 13, _T5_TAGS_INTR, _t5_13, expected=_T5_CLAIMS),
        _descriptor("T5", 14, _T5_TAGS_INTR, _t5_14, expected=_T5_CLAIMS),
        _descriptor("T5", 15, _T5_TAGS_TR, _t5_15, expected=_T5_CLAIMS),
        _descriptor("T5", 16, _T5_TAGS_TR, _t5_16, expected=_T5_CLAIMS),
    ]

    i_interior_hi = ParamSpec("i", "2 <= i <= r-2", _interior_i(2, -2))
    i_interior_lo = ParamSpec("i", "1 <= i <= r-3", _interior_i(1, -3))
    r1_at_i = _t6_claims("R1", lambda r, p: p["i"])
    l1_at_i = _t6_claims("L1", lambda r, p: p["i"])
    t6 = [
        _descriptor("T6", 17, _T6_TAGS, _t6_17, params=[i_interior_hi],
                    expected=r1_at_i),
        _descriptor("T6", 18, _T6_TAGS, _t6_18, params=[i_interior_hi],
                    expected=l1_at_i),
        _descriptor("T6", 19, _T6_TAGS, _t6_19, params=[i_interior_lo],
                    expected=r1_at_i),
        _descriptor("T6", 20, _T6_TAGS, _t6_20, params=[i_interior_lo],
                    expected=l1_at_i),
        _descriptor("T6", 21, _T6_TAGS, _t6_21,
                    expected=_t6_claims("L1", lambda r, p: 1)),
        _descriptor("T6", 22, _T6_TAGS, _t6_22,
                    expected=_t6_claims("R1", lambda r, p: 1)),
        _descriptor("T6", 23, _T6_TAGS, _t6_23,
                    expected=_t6_claims("L1", lambda r, p: r - 2)),
        _descriptor("T6", 24, _T6_TAGS, _t6_24,
                    expected=_t6_claims("R1", lambda r, p: r - 2)),
    ]

    x_even = ParamSpec("x", "x even, 2 <= x <= r-3", _x_values(0))
    x_odd = ParamSpec("x", "x odd, 1 <= x <= r-3", _x_values(1))
    t7 = [
        _descriptor("T7", 25, _T7_TAGS_EVEN, _t7_25, domain=odd_half,
                    params=[x_even], expected=_T7_CLAIMS),
        _descriptor("T7", 26, _T7_TAGS_EVEN, _t7_26, domain=odd_half,
                    params=[x_even], expected=_T7_CLAIMS),
        _descriptor("T7", 27, _T7_TAGS_ODD, _t7_27, domain=odd_half,
                    params=[x_odd], expected=_T7_CLAIMS),
        _descriptor("T7", 28, _T7_TAGS_ODD, _t7_28, domain=odd_half,
                    params=[x_odd], expected=_T7_CLAIMS),
    ]

    i_t8 = ParamSpec("i", "2 <= i <= r-3", _interior_i(2, -3))
    t8 = [
        _descriptor("T8", 1, "m=2; |R|=0; <C> intransitive", _t8_1,
                    expected=_C2_X_SYM_CLAIMS),
        _descriptor("T8", 2, "m=2; |R|=0; <C> transitive", _t8_2,
                    expected=_C2_X_SYM_CLAIMS),
        _descriptor("T8", 3, "m=2; G_0 and G_(r-1) intransitive", _t8_3,
                    expected=_T8_3_CLAIMS),
        _descriptor("T8", 4, "m=2; G_0 and G_(r-1) intransitive", _t8_4,
                    params=[i_t8], expected=_T8_4_CLAIMS),
        _descriptor("T8", 5, "m=2; G_0 transitive, G_(r-1) intransitive",
                    _t8_5, expected=_T8_4_CLAIMS),
        _descriptor("T8", 6, "m=2; G_0 transitive, G_(r-1) intransitive",
                    _t8_6, expected=_T8_4_CLAIMS),
        _descriptor("T8", 7, "m=2; G_0 transitive, G_(r-1) intransitive",
                    _t8_7, expected=_T8_4_CLAIMS),
    ]

    extras = [
        _descriptor("HIGHC", 1, "rank n-1; simplex path", _highc_1,
                    rank_for=lambda n: n - 1,
                    domain=_min_degree(5),
                    expected=_RANK_N_1_CLAIMS),
        _descriptor("HIGHC", 2, "rank n-2; path 1,0,1,2,..", _highc_2,
                    rank_for=lambda n: n - 2,
                    domain=_min_degree(7),
                    expected=_RANK_N_2_CLAIMS),
        _descriptor("REP2N", 1, "Sym_n on 2n points; rank n-1", _rep2n_1,
                    rank_for=lambda n: n - 1, points_per_n=2,
                    domain=_min_degree(7),
                    expected=_RANK_N_1_CLAIMS),
        _descriptor("REP2N", 2, "Sym_n on 2n points; rank n-2", _rep2n_2,
                    rank_for=lambda n: n - 2, points_per_n=2,
                    domain=_min_degree(7),
                    expected=_RANK_N_2_CLAIMS),
        _descriptor("P61", 1, "C2 x Sym(n/2); block count 2; intransitive C",
                    _t8_1, expected=_C2_X_SYM_CLAIMS),
        _descriptor("P61", 2, "C2 x Sym(n/2); block count 2; transitive C",
                    _t8_2, expected=_C2_X_SYM_CLAIMS),
    ]
    return t4 + t5 + t6 + t7 + t8 + extras


_CATALOG = None


def family_catalog():
    """All descriptors: 35 numbered table graphs plus HIGHC/REP2N/P61."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return list(_CATALOG)


def descriptor(family_id):
    for desc in family_catalog():
        if desc.id == family_id:
            return desc
    raise FamilyDomainError(f"unknown family id {family_id!r}")


def instantiate_family(family_id, params):
    """Build the graph for an id like "T6#17" with params {"n": .., "i": ..}."""
    desc = descriptor(family_id)
    params = dict(params)
    if "n" not in params:
        raise FamilyDomainError(f"{family_id}: parameter n is required")
    n = params.pop("n")
    return desc.instantiate(n, params)


def table_families():
    """The T4-T8 descriptors (degree-n catalog rows)."""
    return [d for d in family_catalog() if d.table in ("T4", "T5", "T6", "T7", "T8")]


def _catalog(points):
    """(descriptor, its own n, why it has no instance on this many points or
    None) per family, in catalog order; the own n is points / points_per_n."""
    for desc in family_catalog():
        n, rest = divmod(points, desc.points_per_n)
        if rest:
            yield desc, None, (f"acts on {desc.points_per_n}n points, "
                               f"requires even degree, got {points}")
        else:
            yield desc, n, desc.domain_error(n)


def catalog_instances(points):
    """(family_id, params) pairs admissible on this many points."""
    return [(desc.id, {"n": n, **params})
            for desc, n, reason in _catalog(points)
            if not reason for params in desc.param_sweep(n)]


def catalog_skips(points):
    """(family_id, reason) for every family with no instance on this many
    points, in catalog order."""
    return [(desc.id, reason) for desc, _, reason in _catalog(points) if reason]


@lru_cache(maxsize=None)
def _duality_table(points):
    """(id, params, form, dual's form) per instance on this many points, and
    the lookup from form to (id, params).  P61 is left out of the lookup: its
    rows are aliases of T8#1/2, so they would double every match."""
    rows = []
    for family_id, params in catalog_instances(points):
        graph = instantiate_family(family_id, params)
        rows.append((family_id, params, canonical_form(graph),
                     involution_form(graph.images[::-1])))
    lookup = {form: (family_id, params)
              for family_id, params, form, _ in rows
              if descriptor(family_id).table != "P61"}
    return rows, lookup


def duality_partner(family_id, n):
    """Catalog id whose instance matches the dual graph, "SELF", or None.

    The tables list one representative per dual pair, so for many entries
    the dual graph matches nothing in the catalog; those return None and the
    report records the dual as unlisted.
    """
    desc = descriptor(family_id)
    if desc.domain_error(n):
        raise FamilyDomainError(
            f"{family_id}: degree {n} not admissible for the duality check"
        )
    rows, lookup = _duality_table(desc.points_per_n * n)
    outcomes = set()
    for row_id, params, _, dual_form in rows:
        if row_id != family_id:
            continue
        hit = lookup.get(dual_form)
        if hit is None:
            outcomes.add(None)
        elif hit[0] == family_id:
            outcomes.add("SELF" if hit[1] == params else family_id)
        else:
            outcomes.add(hit[0])
    non_null = {x for x in outcomes if x}
    if not non_null:
        return None
    if non_null == {"SELF"}:
        return "SELF"
    if non_null <= {"SELF", family_id}:
        # Closed under duality with parameters reflected inside the family.
        return family_id
    if len(non_null) == 1:
        return non_null.pop()
    return None


__all__ = [
    "FamilyDescriptor",
    "FamilyDomainError",
    "ParamSpec",
    "family_catalog",
    "table_families",
    "descriptor",
    "instantiate_family",
    "catalog_instances",
    "catalog_skips",
    "duality_partner",
]
