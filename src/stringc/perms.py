"""Permutations and permutation groups on {1..n}.

Permutations are stored as 0-based image tuples; all parsing and printing is
1-based to match the usual cycle notation.  Groups carry a deterministic
stabilizer chain (Schreier-Sims, smallest-moved-point-first base) giving exact
orders, membership and coset orbits at the scales this package targets
(degree <= ~64).  The order of a meet is read off a coset orbit; a group's
elements are listed, where a caller needs them, by plain closure.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter


class PermError(ValueError):
    """Malformed permutation input or degree mismatch."""


class Permutation:
    """A bijection of {1..n}, immutable and hashable."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise PermError("images are not a bijection of 0..n-1")
        object.__setattr__(self, "images", images)

    @classmethod
    def _raw(cls, images):
        # Trusted constructor for products of already-valid permutations.
        self = object.__new__(cls)
        object.__setattr__(self, "images", images)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __reduce__(self):
        return (Permutation._raw, (self.images,))

    @property
    def degree(self):
        return len(self.images)

    @staticmethod
    def identity(degree):
        return Permutation._raw(tuple(range(degree)))

    @staticmethod
    def from_cycles(cycles, degree):
        """Build a permutation from disjoint 1-based cycles."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            for a in cycle:
                if not 1 <= a <= degree:
                    raise PermError(f"point {a} out of range 1..{degree}")
                if a in seen:
                    raise PermError(f"point {a} repeated in cycle expression")
                seen.add(a)
            for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
                images[a - 1] = b - 1
        return Permutation._raw(tuple(images))

    def __mul__(self, other):
        """Product acting left-to-right: x(p*q) = (xp)q."""
        return Permutation._raw(tuple(map(other.images.__getitem__, self.images)))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._raw(tuple(inv))

    def conjugate(self, g):
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def apply(self, point):
        """Image of a 1-based point."""
        return self.images[point - 1] + 1

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def is_involution(self):
        images = self.images
        return any(i != j for i, j in enumerate(images)) and all(
            images[j] == i for i, j in enumerate(images)
        )

    def order(self):
        cycles = self.cycles()
        return math.lcm(*(len(c) for c in cycles)) if cycles else 1

    def cycles(self):
        """Nontrivial cycles as 1-based tuples, each starting at its minimum."""
        out = []
        seen = set()
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            out.append(tuple(p + 1 for p in cycle))
        return out

    def cycle_type(self):
        """Sorted tuple of nontrivial cycle lengths."""
        return tuple(sorted(len(c) for c in self.cycles()))

    def is_even(self):
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Permutation({self})"

    def __str__(self):
        cycles = self.cycles()
        if not cycles:
            return "id"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)")


def parse_perm(text, degree):
    """Parse cycle notation ("(1,2)(3,4)", "id" or "()") into a Permutation.

    Points not mentioned are fixed.  Raises PermError on repeated points,
    points beyond the degree, or anything outside the cycle grammar.
    """
    stripped = text.strip()
    if stripped in ("id", "()"):
        return Permutation.identity(degree)
    cycles = []
    pos = 0
    while pos < len(stripped):
        m = _CYCLE_RE.match(stripped, pos)
        if m is None:
            raise PermError(f"malformed cycle notation at {stripped[pos:]!r}")
        cycle = [int(tok) for tok in m.group(1).split(",")]
        if len(cycle) < 2:
            raise PermError("cycles need at least two points")
        cycles.append(cycle)
        pos = m.end()
        while pos < len(stripped) and stripped[pos].isspace():
            pos += 1
    return Permutation.from_cycles(cycles, degree)


class _Level:
    """One stabilizer-chain level: base point, home generators, transversal.

    A generator's home level is the first level whose base point it moves;
    the group at level i is generated by the home generators of levels >= i.
    """

    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point, degree):
        self.point = point
        self.gens = []
        self.transversal = {point: Permutation.identity(degree)}


class StabilizerChain:
    """Deterministic Schreier-Sims chain.

    A new level takes the smallest point moved by the residue that forced it.
    """

    def __init__(self, generators, degree):
        self.degree = degree
        self.levels = []
        self._coset_levels = None
        seeded = False
        for g in generators:
            if not g.is_identity():
                self.levels[self._home_level(g, 0)].gens.append(g)
                seeded = True
        if seeded:
            self._complete()

    def _home_level(self, g, start):
        """First level at or past start whose point g moves; creates levels."""
        d = start
        while True:
            if d == len(self.levels):
                point = next(i for i, j in enumerate(g.images) if i != j)
                self.levels.append(_Level(point, self.degree))
            if g.images[self.levels[d].point] != self.levels[d].point:
                return d
            d += 1

    def _gens_at(self, level):
        return [g for lvl in self.levels[level:] for g in lvl.gens]

    def _rebuild_transversal(self, level, gens):
        # BFS in sorted order keeps the transversal deterministic.
        lvl = self.levels[level]
        lvl.transversal = {lvl.point: Permutation.identity(self.degree)}
        frontier = [lvl.point]
        while frontier:
            frontier.sort()
            nxt = []
            for a in frontier:
                t = lvl.transversal[a]
                for g in gens:
                    b = g.images[a]
                    if b not in lvl.transversal:
                        lvl.transversal[b] = t * g
                        nxt.append(b)
            frontier = nxt

    def _complete(self):
        # Bottom-up verification: a level is complete when all its Schreier
        # generators sift to identity through the (already complete) deeper
        # levels.  New residues restart verification at their home level.
        i = len(self.levels) - 1
        while i >= 0:
            lvl = self.levels[i]
            gens_i = self._gens_at(i)
            self._rebuild_transversal(i, gens_i)
            home = None
            for a in sorted(lvl.transversal):
                t = lvl.transversal[a]
                for gen in gens_i:
                    schreier = t * gen * lvl.transversal[gen.images[a]].inverse()
                    residue, _ = self.sift(schreier, start=i + 1)
                    if not residue.is_identity():
                        home = self._home_level(residue, i + 1)
                        self.levels[home].gens.append(residue)
                        break
                if home is not None:
                    break
            if home is not None:
                i = home
            else:
                i -= 1

    def sift(self, g, start=0):
        """Strip g through the chain; returns (residue, level reached)."""
        level = start
        while level < len(self.levels):
            lvl = self.levels[level]
            image = g.images[lvl.point]
            if image == lvl.point:
                level += 1
                continue
            t = lvl.transversal.get(image)
            if t is None:
                return g, level
            g = g * t.inverse()
            level += 1
        return g, level

    def contains(self, g):
        residue, _ = self.sift(g)
        return residue.is_identity()

    def order(self):
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def coset_orbit_size(self, generators):
        """Number of right cosets G*s of this group G, s in <generators>.

        They form the orbit of the coset G under right multiplication by
        S = <generators>, so there are |S| / |S meet G| of them; no element
        of either group is listed.  A coset is named by its
        canonical representative: descending the chain, each level keeps
        the transversal element that gives the least image of the level's
        base point (Holt, Eick and O'Brien, Handbook of Computational Group
        Theory, 2005, 4.6).
        """
        if self._coset_levels is None:
            # Per level: the images of x on the orbit, the base point, and
            # the products t_a * x; itemgetters keep the descent in C.
            self._coset_levels = [
                (itemgetter(*lvl.transversal), lvl.point,
                 {a: itemgetter(*t.images) for a, t in lvl.transversal.items()})
                for lvl in self.levels
                if len(lvl.transversal) > 1
            ]
        levels = self._coset_levels

        def canonical(images):
            # images of an element x; returns the representative of G*x.
            for on_orbit, point, times in levels:
                a = images.index(min(on_orbit(images)))
                if a != point:
                    images = times[a](images)
            return images

        gens = [g.images for g in generators]
        start = canonical(tuple(range(self.degree)))
        seen = {start}
        frontier = [start]
        while frontier:
            found = []
            for x in frontier:
                for g in gens:
                    y = canonical(tuple(map(g.__getitem__, x)))
                    if y not in seen:
                        seen.add(y)
                        found.append(y)
            frontier = found
        return len(seen)


class PermGroup:
    """Group generated by a list of Permutations, with a lazy chain.

    The chain is built at most once, on first use.
    """

    def __init__(self, generators, degree=None):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise PermError("degree required for a group with no generators")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise PermError("generators have mixed degrees")
        self.degree = degree
        self.generators = [g for g in generators if not g.is_identity()]
        self._chain = None

    @property
    def chain(self):
        if self._chain is None:
            self._chain = StabilizerChain(self.generators, self.degree)
        return self._chain

    def order(self):
        return self.chain.order()

    def __contains__(self, g):
        if g.degree != self.degree:
            return False
        return self.chain.contains(g)

    def orbit(self, point):
        """Orbit of a 1-based point, as a sorted list."""
        seen = {point - 1}
        frontier = [point - 1]
        while frontier:
            a = frontier.pop()
            for g in self.generators:
                b = g.images[a]
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return sorted(p + 1 for p in seen)

    def is_transitive(self):
        return len(self.orbit(1)) == self.degree

    def minimal_block_systems(self):
        """Deduplicated pair closures {1,x}; empty iff the group is primitive."""
        if not self.is_transitive():
            raise PermError("block systems require a transitive group")
        systems = []
        seen = set()
        for x in range(2, self.degree + 1):
            system = self._pair_closure(1, x)
            if system.block_count in (1, self.degree):
                continue
            if system.blocks not in seen:
                seen.add(system.blocks)
                systems.append(system)
        return systems

    def _pair_closure(self, a, b):
        # Atkinson-style union-find closure of the seed pair under the
        # generator action.
        n = self.degree
        parent = list(range(n))

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx == ry:
                return None
            if rx > ry:
                rx, ry = ry, rx
            parent[ry] = rx
            return ry

        parent[b - 1] = a - 1
        queue = [b - 1]
        while queue:
            c = queue.pop()
            r = find(c)
            if c == r:
                continue
            for g in self.generators:
                merged = union(g.images[c], g.images[r])
                if merged is not None:
                    queue.append(merged)
        blocks = {}
        for p in range(n):
            blocks.setdefault(find(p), []).append(p + 1)
        return BlockSystem(n, blocks.values())

    def all_block_systems(self):
        """Every nontrivial block system, via closures of quotient actions."""
        out = {}
        stack = list(self.minimal_block_systems())
        while stack:
            system = stack.pop()
            if system.blocks in out:
                continue
            out[system.blocks] = system
            quotient = PermGroup(
                [system.action_on_blocks(g) for g in self.generators],
                system.block_count,
            )
            if not quotient.generators:
                continue
            for inner in quotient.minimal_block_systems():
                lifted = [
                    tuple(
                        sorted(
                            p
                            for idx in inner_block
                            for p in system.blocks[idx - 1]
                        )
                    )
                    for inner_block in inner.blocks
                ]
                stack.append(BlockSystem(self.degree, lifted))
        return sorted(out.values(), key=lambda s: (s.block_size, s.blocks))


def intersection_order_bounded(a, b, bound):
    """|a meet b| when it is <= bound, otherwise bound + 1.

    The meet's order is |a| over the size of the orbit of b's coset under a
    (StabilizerChain.coset_orbit_size).  Nothing in the package calls this;
    the name stays because bench/tracing.py patches it in stringc.sggi.
    """
    return min(a.order() // b.chain.coset_orbit_size(a.generators), bound + 1)


class BlockSystem:
    """A partition of {1..n} into equal-size blocks, stored sorted."""

    __slots__ = ("degree", "blocks")

    def __init__(self, degree, blocks):
        blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
        covered = sorted(p for block in blocks for p in block)
        if covered != list(range(1, degree + 1)):
            raise PermError("blocks must partition {1..n}")
        if len({len(b) for b in blocks}) != 1:
            raise PermError("blocks must have equal sizes")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("BlockSystem is immutable")

    @property
    def block_count(self):
        return len(self.blocks)

    @property
    def block_size(self):
        return len(self.blocks[0])

    def is_invariant_under(self, g):
        block_set = set(self.blocks)
        return all(
            tuple(sorted(g.apply(p) for p in block)) in block_set
            for block in self.blocks
        )

    def action_on_blocks(self, g):
        """The permutation g induces on block indices (degree = #blocks)."""
        position = {block: i for i, block in enumerate(self.blocks)}
        images = []
        for block in self.blocks:
            target = tuple(sorted(g.apply(p) for p in block))
            if target not in position:
                raise PermError("partition is not invariant under the permutation")
            images.append(position[target])
        return Permutation._raw(tuple(images))

    def __eq__(self, other):
        return (
            isinstance(other, BlockSystem)
            and self.degree == other.degree
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.degree, self.blocks))

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"BlockSystem[{inner}]"


def brute_force_elements(generators, degree, limit=10**6):
    """Every element of <generators>, by multiplicative closure.

    Uses no stabilizer chain, so tests also take it as an oracle for the
    chain's orders and meets.
    """
    ident = Permutation.identity(degree)
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                gh = g * h
                if gh not in elements:
                    elements.add(gh)
                    nxt.append(gh)
                    if len(elements) > limit:
                        raise PermError("closure exceeds limit")
        frontier = nxt
    return elements


def brute_force_order(generators, degree, limit=10**6):
    """Order by plain closure; independent of the stabilizer chain."""
    return len(brute_force_elements(generators, degree, limit))


__all__ = [
    "Permutation",
    "PermGroup",
    "BlockSystem",
    "StabilizerChain",
    "PermError",
    "parse_perm",
    "brute_force_elements",
    "brute_force_order",
]
