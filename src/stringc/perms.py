"""Permutations and permutation groups on {1..n}.

Permutations are stored as 0-based image tuples; all parsing and printing is
1-based to match the usual cycle notation.  Groups carry a deterministic
stabilizer chain (Schreier-Sims, smallest-moved-point-first base) giving exact
orders, membership and coset orbits at the scales this package targets
(degree <= ~64; a chain takes at most 256 points).  The order of a meet is
read off a coset orbit; a group's elements are listed, where a caller needs
them, by plain closure.  Inside a chain a permutation is the bytes of its
images, and every product is one bytes.translate call through a 256-entry
table: each generator's table and its inverse's are built once, and each
transversal element is stored beside its inverse's table, so the chain never
calls Permutation.inverse.  A chain keeps the coset action it has worked out
(numbered cosets and the moves between them) for its whole life, so meets
that share the chain do not descend it again.  A chain of <H, g> may be built
by extending a complete chain of H: the new chain starts from H's levels,
transversals and generator tables and sifts only the Schreier generators
that H's chain has not already settled, each at most once per level.  A
coset is named by the inverse of its canonical element, found with one
translate per level, and a coset orbit whose size is known to divide a
bound stops as soon as Lagrange's theorem settles it.
"""

from __future__ import annotations

import math
import re
from array import array


class PermError(ValueError):
    """Malformed permutation input or degree mismatch."""


class _IdentityImages(dict):
    """The identity's image tuple per degree, each built once."""

    def __missing__(self, degree):
        images = self[degree] = tuple(range(degree))
        return images


_IDENTITY = _IdentityImages()


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
        return Permutation._raw(_IDENTITY[degree])

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
        """The inverse; an involution or the identity returns itself.
        StabilizerChain keeps inverse tables of its own and never calls
        this."""
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        inv = tuple(inv)
        return self if inv == self.images else Permutation._raw(inv)

    def apply(self, point):
        """Image of a 1-based point."""
        return self.images[point - 1] + 1

    def is_identity(self):
        return self.images == _IDENTITY[len(self.images)]

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


# bytes.translate maps each byte through a 256-entry table, so a chain's
# permutations are bytes of length n <= 256: x.translate(table of g) is the
# product x * g, a table being g's images padded with the fixed points n..255.
_TABLE_IDENTITY = bytes(range(256))


class _Level:
    """One stabilizer-chain level: base point, home generators, transversal.

    A generator's home level is the first level whose base point it moves;
    the group at level i is generated by the home generators of levels >= i.
    tables holds the _table pair of each home generator, in the order they
    were added, so a level's list changes only when a generator is added.
    transversal[b] holds the images of a transversal element as bytes, and
    inverse[b] its inverse as a 256-entry bytes.translate table, kept so
    that sifting and Schreier generators never invert the same element
    twice.

    While a chain is built, known holds a transversal, its inverses and a
    set of generator tables such that every Schreier generator of that
    transversal and those generators is known to sift to the identity.
    """

    __slots__ = ("point", "tables", "transversal", "inverse", "known")

    def __init__(self, point, degree):
        self.point = point
        self.tables = []
        self.transversal = {point: _TABLE_IDENTITY[:degree]}
        self.inverse = {point: _TABLE_IDENTITY}
        self.known = (self.transversal, self.inverse, frozenset())

    def extension(self, tables):
        """A twin for a chain that extends this level's complete chain, with
        tables the _table pairs of the generators of this level's group.
        The twin has its own tables list and shares the transversal dicts,
        which _rebuild_transversal replaces and never mutates."""
        twin = _Level.__new__(_Level)
        twin.point = self.point
        twin.tables = list(self.tables)
        twin.transversal = self.transversal
        twin.inverse = self.inverse
        twin.known = (self.transversal, self.inverse,
                      {table for table, _ in tables})
        return twin


class StabilizerChain:
    """Deterministic Schreier-Sims chain on at most 256 points.

    A new level takes the smallest point moved by the residue that forced it.
    Given `extends`, a complete chain of some group H, the chain is built for
    <H, generators> by adding the generators to a copy of H's levels (Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 2005, 4.4);
    the chain extended is left as it was.  Inside the chain a permutation is
    the bytes of its images, and products, sifts and coset names are
    bytes.translate calls.
    """

    def __init__(self, generators, degree, extends=None):
        if degree > 256:
            raise PermError(f"a stabilizer chain takes at most 256 points, "
                            f"not {degree}")
        self.degree = degree
        self._identity = _TABLE_IDENTITY[:degree]
        self._tail = _TABLE_IDENTITY[degree:]
        # Per generator's images: its translate table and its inverse's,
        # shared with the chains that extend this one.
        self._tables = {} if extends is None else extends._tables
        self.levels = [] if extends is None else [
            lvl.extension(extends._tables_at(i))
            for i, lvl in enumerate(extends.levels)]
        self._coset_levels = None
        # The coset action, memoised for the chain's life: each coset G*x
        # named by the images of the inverse of its canonical element x, as
        # degree-length bytes, and numbered in order of discovery (0 is this
        # group's own coset); and per generator's images a step (its
        # inverse's images, move table, whether the generator squares to
        # the identity), where the move table holds the number each coset
        # moves to, -1 until the move is first taken.
        self._reps = []
        self._rep_number = {}
        self._moves = {}
        deepest = -1
        for g in generators:
            if not g.is_identity():
                home = self._add(g, 0)
                deepest = max(deepest, home)
        # Levels past the deepest home are complete already: no new
        # generator lies in their groups.
        if deepest >= 0:
            self._complete(deepest)
        for lvl in self.levels:
            lvl.known = None  # needed only while the chain is built

    def _table(self, g):
        """g's translate table and its inverse's, built once per generator."""
        tables = self._tables.get(g.images)
        if tables is None:
            images = g.images
            tables = self._tables[images] = (
                bytes(images) + self._tail,
                bytes(sorted(range(self.degree), key=images.__getitem__))
                + self._tail)
        return tables

    def _add(self, g, start):
        """Make g a home generator of the first level at or past start whose
        point it moves, creating levels; returns that level's index."""
        d = start
        while True:
            if d == len(self.levels):
                point = next(i for i, j in enumerate(g.images) if i != j)
                self.levels.append(_Level(point, self.degree))
            lvl = self.levels[d]
            if g.images[lvl.point] != lvl.point:
                lvl.tables.append(self._table(g))
                return d
            d += 1

    def _tables_at(self, level):
        """The _table pairs of the generators of the group at level."""
        return [t for lvl in self.levels[level:] for t in lvl.tables]

    def _rebuild_transversal(self, level, tables):
        """Extend the level's known transversal to the orbit of the
        generators whose _table pairs are given.

        The BFS runs in sorted order, which keeps the transversal
        deterministic.  Returns the tree edges: the pairs (a, j) that
        defined transversal[a^g] = transversal[a] * g for the generator g
        of tables[j].  The inverse of t * g is g^-1 * t^-1, one translate
        of g^-1's table.
        """
        lvl = self.levels[level]
        transversal, inverse = dict(lvl.known[0]), dict(lvl.known[1])
        tree = set()
        frontier = list(transversal)
        while frontier:
            frontier.sort()
            nxt = []
            for a in frontier:
                t = transversal[a]
                for j, (table, inverse_table) in enumerate(tables):
                    b = table[a]
                    if b not in transversal:
                        transversal[b] = t.translate(table)
                        inverse[b] = inverse_table.translate(inverse[a])
                        tree.add((a, j))
                        nxt.append(b)
            frontier = nxt
        lvl.transversal, lvl.inverse = transversal, inverse
        return tree

    def _complete(self, start):
        # Bottom-up verification from level start, past which every level is
        # complete: a level is complete when all its Schreier generators
        # sift to identity through the (already complete) deeper levels.
        # New residues restart verification at their home level.
        #
        # Three kinds of Schreier generator t_a * g * t_(a^g)^-1 are skipped
        # unsifted.  On a tree edge, t_(a^g) is t_a * g itself, so the
        # generator is the identity.  For a on the known transversal's orbit
        # and g among the known generators, t_a and t_(a^g) are the known
        # transversal's, so the generator was sifted to the identity before:
        # it lies in the group the deeper levels had then, which they still
        # contain, complete.  That holds for the chain extended (its levels
        # were complete) and for a level verified earlier in this build.
        # Last, a generator already sifted in this build, from this level or
        # a deeper one: its residue was the identity or was added as a
        # generator, so it lies in the group of the levels past this one,
        # which only grows.  A skipped generator would sift to the identity,
        # so the chain is the one a build without these skips gives.
        identity = self._identity
        sifted = {}  # Schreier generator images -> deepest level sifted at
        i = start
        while i >= 0:
            lvl = self.levels[i]
            tables = self._tables_at(i)
            tree = self._rebuild_transversal(i, tables)
            known_orbit, _, known_tables = lvl.known
            inverse = lvl.inverse
            every = range(len(tables))
            fresh = [j for j in every if tables[j][0] not in known_tables]
            home = None
            for a in sorted(lvl.transversal):
                t = lvl.transversal[a]
                for j in fresh if a in known_orbit else every:
                    if (a, j) in tree:
                        continue
                    table = tables[j][0]
                    schreier = t.translate(table).translate(inverse[table[a]])
                    if sifted.get(schreier, -1) >= i:
                        continue
                    sifted[schreier] = i
                    residue = self._sift(schreier, i + 1)
                    if residue != identity:
                        home = self._add(Permutation._raw(tuple(residue)), i + 1)
                        break
                if home is not None:
                    break
            if home is not None:
                i = home
            else:
                lvl.known = (lvl.transversal, lvl.inverse,
                             {table for table, _ in tables})
                i -= 1

    def _sift(self, images, start):
        """Strip a permutation, given by the bytes of its images, through
        the levels from start on; returns the residue's images."""
        for lvl in self.levels[start:]:
            image = images[lvl.point]
            if image != lvl.point:
                t_inv = lvl.inverse.get(image)
                if t_inv is None:
                    break
                images = images.translate(t_inv)
        return images

    def contains(self, g):
        return self._sift(bytes(g.images), 0) == self._identity

    def order(self):
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def coset_orbit_size(self, generators, bound=None):
        """Number of right cosets G*s of this group G, s in <generators>.

        They form the orbit of the coset G under right multiplication by
        S = <generators>, so there are |S| / |S meet G| of them; no element
        of either group is listed.  A coset is named by the inverse of its
        canonical representative: descending the chain, each level keeps
        the transversal element that gives the least image of the level's
        base point (Holt, Eick and O'Brien, Handbook of Computational Group
        Theory, 2005, 4.6).  On x's inverse that is one translate per
        level: deleting the points off the level's orbit from x^-1's images
        leaves the orbit points in the order of their images under x, so
        the first is the point a whose image is least, and t_a * x has
        inverse x^-1 * t_a^-1, x^-1 translated by t_a's inverse table.
        The search runs on coset numbers; a move (coset, generator) is
        descended once per chain and then looked up, which is exact because
        G*x*g depends on the coset G*x alone; (x*g)^-1 = g^-1 * x^-1 is g's
        inverse translated by x^-1.  For an involution g (g's table equal to
        its inverse's), G*x*g = G*y gives G*y*g = G*x, so each descent
        records the reverse move too.

        bound, if given, is a number that the caller knows the orbit's size
        divides, such as |S| / |T| for a subgroup T of S meet G (the orbit
        has |S| / |S meet G| cosets, and |T| divides |S meet G|).  With p
        the least prime factor of bound, a divisor of bound over bound / p
        is bound itself, so the search stops once it has found more than
        bound / p cosets and returns bound.  A search cut short records
        only true moves, so later queries on the chain stay exact.
        """
        if bound == 1:
            return 1
        stop = None if bound is None else bound // _least_prime_factor(bound)
        if self._coset_levels is None:
            # Per level: the points off the base point's orbit, and the
            # inverse tables of the transversal.
            self._coset_levels = [
                (bytes(set(range(self.degree)) - lvl.transversal.keys()),
                 lvl.point, lvl.inverse)
                for lvl in self.levels
                if len(lvl.transversal) > 1
            ]
            self._number(self._identity)
        reps, moves = self._reps, self._moves
        steps = []
        for g in generators:
            step = moves.get(g.images)
            if step is None:
                table, inverse_table = self._table(g)
                step = moves[g.images] = (
                    inverse_table[:self.degree],
                    array("i", [-1]) * len(reps), table == inverse_table)
            steps.append(step)
        tail = self._tail
        seen = {0}
        frontier = [0]
        while frontier:
            found = []
            for x in frontier:
                for inverse, move, involution in steps:
                    y = move[x]
                    if y < 0:
                        y = move[x] = self._number(
                            inverse.translate(reps[x] + tail))
                        if involution:
                            move[y] = x
                    if y not in seen:
                        if len(seen) == stop:
                            return bound
                        seen.add(y)
                        found.append(y)
            frontier = found
        return len(seen)

    def _number(self, inverse):
        """Number of the coset G*x, x^-1 given by the bytes of its images;
        new cosets get the next number."""
        for off_orbit, point, inverses in self._coset_levels:
            a = inverse.translate(None, off_orbit)[0]
            if a != point:
                inverse = inverse.translate(inverses[a])
        number = self._rep_number.setdefault(inverse, len(self._reps))
        if number == len(self._reps):
            self._reps.append(inverse)
            for _, move, _ in self._moves.values():
                move.append(-1)
        return number


def _least_prime_factor(n):
    """The least prime dividing n > 1."""
    return next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)


class PermGroup:
    """Group generated by a list of Permutations, with a lazy chain.

    The chain is built at most once, on first use, unless the caller passes
    a complete chain of the group that it has already built.
    """

    def __init__(self, generators, degree=None, chain=None):
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
        self._chain = chain

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


__all__ = [
    "Permutation",
    "PermGroup",
    "BlockSystem",
    "StabilizerChain",
    "PermError",
    "parse_perm",
    "brute_force_elements",
]
