"""String groups generated by involutions.

An sggi is an ordered list of involutions where generators at non-adjacent
string positions commute.  This module validates them, computes Schlafli
symbols, checks independence and the intersection property, and forms duals.
Independence is mostly read off the orders of two intervals.  The
intersection property has two checks: a naive oracle that decides every pair
of generator subsets, most from their widest superpair and most widest pairs
by a narrow pair inside a holding superpair, decided the same way; and the
standard recursive criterion over intervals.
"""

from __future__ import annotations

import math

from .perms import StabilizerChain, brute_force_elements

# Unused here, but bench/tracing.py patches stringc.sggi by this name.
from .perms import intersection_order_bounded  # noqa: F401


class SggiError(ValueError):
    """Generator list fails the sggi axioms; `pair` names the culprit(s)."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class IPBudgetExceeded(RuntimeError):
    """Intersection-property check would need an oversized coset orbit, or
    a naive scan over too high a rank."""


class IndexSet(frozenset):
    """A subset of the generator indices {0..r-1}."""


class SchlafliSymbol(tuple):
    """Orders of consecutive generator products, printed as {p1,p2,...}."""

    def __new__(cls, entries):
        entries = tuple(int(p) for p in entries)
        if any(p < 2 for p in entries):
            raise SggiError("Schlafli entries must be >= 2")
        return super().__new__(cls, entries)

    def __str__(self):
        return "{" + ",".join(map(str, self)) + "}"

    def __repr__(self):
        return f"SchlafliSymbol({str(self)})"


class Sggi:
    """Validated string group generated by involutions.

    strict=False waives only the pairwise-distinctness requirement, so that
    degenerate generator lists can still be fed to the intersection-property
    checkers (where repeats are a classic way to fail).
    """

    __slots__ = ("degree", "gens")

    def __init__(self, gens, strict=True):
        gens = tuple(gens)
        if not gens:
            raise SggiError("at least one generator required")
        degree = gens[0].degree
        for i, g in enumerate(gens):
            if g.degree != degree:
                raise SggiError(f"generator {i} has mismatched degree")
            if g.is_identity():
                raise SggiError(f"generator {i} is the identity", pair=(i,))
            if not g.is_involution():
                raise SggiError(f"generator {i} is not an involution", pair=(i,))
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if strict and gens[i] == gens[j]:
                    raise SggiError(f"generators {i} and {j} are equal", pair=(i, j))
                if j - i > 1 and not (gens[i] * gens[j]) == (gens[j] * gens[i]):
                    raise SggiError(
                        f"commuting property fails for non-adjacent pair ({i},{j})",
                        pair=(i, j),
                    )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "gens", gens)

    def __setattr__(self, name, value):
        raise AttributeError("Sggi is immutable")

    @property
    def rank(self):
        return len(self.gens)

    def __eq__(self, other):
        return isinstance(other, Sggi) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.gens)
        return f"Sggi(degree={self.degree}, rank={self.rank}, [{inner}])"


def schlafli(s: Sggi) -> SchlafliSymbol:
    """p_i = order of gens[i-1] * gens[i]; length rank-1."""
    return SchlafliSymbol(
        (s.gens[i] * s.gens[i + 1]).order() for i in range(s.rank - 1)
    )


def dual(s: Sggi) -> Sggi:
    """The sggi with the generator sequence reversed."""
    return Sggi(s.gens[::-1], strict=False)


def is_independent(s: Sggi, lattice=None) -> bool:
    """No generator lies in the subgroup generated by the others.

    Mostly decided from interval orders.  With P = <g_0..g_{i-1}> and
    S = <g_{i+1}..g_{r-1}>, every generator of P commutes with every
    generator of S, so P and S commute elementwise and <all but g_i> = PS,
    of order at most |P||S|.  Were g_i in it, it would be the whole group
    G; so |P||S| < |G| proves g_i is not.  Only when that bound fails is
    g_i sifted through the chain of <all but g_i>.  P and S are intervals,
    and the recursive intersection-property check builds the chains of
    nearly all intervals anyway.

    A SubsetLattice passed in keeps the chains of the generator subsets for
    later intersection-property checks.
    """
    lattice = lattice or SubsetLattice(s.gens)
    r, full = s.rank, (1 << s.rank) - 1
    return not any(
        lattice.order(_interval_mask(0, i - 1))
        * lattice.order(_interval_mask(i + 1, r - 1)) >= lattice.order(full)
        and lattice.chain(full & ~(1 << i)).contains(g)
        for i, g in enumerate(s.gens)
    )


class IPResult:
    """Outcome of an intersection-property check."""

    __slots__ = ("passed", "witness")

    def __init__(self, passed, witness=None):
        self.passed = passed
        self.witness = witness

    def __bool__(self):
        return self.passed

    def __repr__(self):
        if self.passed:
            return "IPResult(passed)"
        j, k = self.witness
        return f"IPResult(failed, J={sorted(j)}, K={sorted(k)})"


# Largest coset orbit a meet may need: the bound |S| / |<J & K>| on the
# orbit that SubsetLattice.intersection_order enumerates.
_ORBIT_CAP = 10**5

# Highest rank the naive oracle scans.  It visits 4^r subset pairs: on a
# 2-CPU machine rank 12 took about 6 s, and a rank-15 scan ran 16 s and
# reached 0.5 GB before a meet hit the orbit cap.
_NAIVE_MAX_RANK = 12


class SubsetLattice:
    """Orders and pairwise meets of the subgroups that subsets of a
    generator list generate, lazily built: the list is an sggi's generators
    or their images on a block system, which may be the identity or repeat.

    Chains and orders are kept per mask and meets per unordered mask pair.
    The chain of the empty mask is built on its own, and the chain of
    any other <J> extends the chain of <J minus its highest index> by that
    generator, built first if need be, so all chains share one table cache.
    Shared by the naive and recursive checkers so verification builds it
    only once.
    """

    def __init__(self, generators):
        self.generators = tuple(generators)
        self.degree = self.generators[0].degree
        self._chains = {}
        self._orders = {}
        self._elsets = {}
        self._pair_orders = {}

    def gens(self, mask):
        return [g for i, g in enumerate(self.generators) if mask >> i & 1]

    def chain(self, mask):
        chain = self._chains.get(mask)
        if chain is None:
            if mask:
                top = mask.bit_length() - 1
                chain = StabilizerChain(
                    [self.generators[top]], self.degree,
                    extends=self.chain(mask & ~(1 << top)))
            else:
                chain = StabilizerChain([], self.degree)
            self._chains[mask] = chain
        return chain

    def order(self, mask):
        order = self._orders.get(mask)
        if order is None:
            order = self._orders[mask] = self.chain(mask).order()
        return order

    def element_set(self, mask):
        """Every element of <mask> as an image tuple, by closure; a test
        reference."""
        if mask not in self._elsets:
            self._elsets[mask] = frozenset(
                g.images
                for g in brute_force_elements(self.gens(mask), self.degree)
            )
        return self._elsets[mask]

    def orbit_bound(self, mask_j, mask_k):
        """min(|<J>|, |<K>|) / |<J & K>|, the most cosets the meet's orbit
        can have."""
        return min(self.order(mask_j), self.order(mask_k)) // self.order(
            mask_j & mask_k)

    def intersection_order(self, mask_j, mask_k):
        """|<J> meet <K>| = |S| / |orbit of L among its right cosets under S|.

        S is the smaller of the two subgroups and L the larger.  The orbit
        has |S| / |S meet L| cosets, and <J & K> <= S meet L, so it has at
        most bound = |S| / |<J & K>|: past _ORBIT_CAP this raises
        IPBudgetExceeded instead.  Otherwise, since |S meet L| divides both
        |S| and |L| and is a multiple of |<J & K>|, gcd(|S|, |L|) =
        |<J & K>| proves the meet is <J & K> with no orbit run; failing
        that, the orbit's size divides bound, and the orbit search stops
        as soon as Lagrange's theorem shows it is bound (see
        StabilizerChain.coset_orbit_size).
        """
        key = (min(mask_j, mask_k), max(mask_j, mask_k))
        if key not in self._pair_orders:
            small, large = sorted((mask_j, mask_k), key=self.order)
            bound = self.orbit_bound(mask_j, mask_k)
            if bound > _ORBIT_CAP:
                raise IPBudgetExceeded(
                    f"meet of subgroups of orders {self.order(small)} and "
                    f"{self.order(large)} may need {bound} cosets, over the "
                    f"cap of {_ORBIT_CAP}"
                )
            meet = self.order(mask_j & mask_k)
            if math.gcd(self.order(small), self.order(large)) != meet:
                orbit = self.chain(large).coset_orbit_size(
                    self.gens(small), bound)
                meet = self.order(small) // orbit
            self._pair_orders[key] = meet
        return self._pair_orders[key]


def _interval_mask(lo, hi):
    return ((1 << (hi - lo + 1)) - 1) << lo


def _pair_holds(lattice, mask_j, mask_k):
    """<J> meet <K> = <J & K>; IPBudgetExceeded past the orbit cap."""
    return lattice.intersection_order(mask_j, mask_k) == lattice.order(
        mask_j & mask_k)


def _holds(lattice, verdicts, mask_j, mask_k):
    """Whether (J, K) holds: its widest superpair (J | rest, K) is known to
    hold, or else its own meet shows it; IPBudgetExceeded past the cap."""
    full = (1 << len(lattice.generators)) - 1
    wide = mask_j | (full & ~(mask_j | mask_k))  # J | rest
    return (_widest_holds(lattice, verdicts, wide, mask_k)
            or _pair_holds(lattice, mask_j, mask_k))


def _widest_holds(lattice, verdicts, mask_a, mask_b):
    """Whether the widest pair (A, B) is known to hold: it holds and its
    own orbit bound is within _ORBIT_CAP.

    verdicts maps each widest pair, as (lower, higher) mask, to that
    boolean; a pair being decided reads False until it is.
    """
    key = (min(mask_a, mask_b), max(mask_a, mask_b))
    held = verdicts.get(key)
    if held is not None:
        return held
    verdicts[key] = False  # being decided: not known to hold
    only_a, only_b = mask_a & ~mask_b, mask_b & ~mask_a
    if only_a & (only_a - 1):  # |A - B| >= 2: widen B by A's lowest
        i = only_a & -only_a
        wider, side = (mask_a, mask_b | i), mask_b
    elif only_b & (only_b - 1):  # |B - A| >= 2: widen A by B's lowest
        i = only_b & -only_b
        wider, side = (mask_a | i, mask_b), mask_a
    else:
        i = 0  # a base pair
    if (i and _widest_holds(lattice, verdicts, *wider)
            and lattice.orbit_bound(mask_a, mask_b) <= _ORBIT_CAP):
        held = _holds(lattice, verdicts, side, (mask_a & mask_b) | i)
    else:
        try:
            held = _pair_holds(lattice, mask_a, mask_b)
        except IPBudgetExceeded:
            held = False  # not known to hold: meet each pair itself
    verdicts[key] = held
    return held


def _check_naive(s: Sggi, lattice=None) -> IPResult:
    """Every non-nested pair (J, K) in increasing-bitmask order; most are
    decided by their widest superpair, and most widest pairs by a narrow
    pair inside a holding superpair, itself decided as any pair is.

    Pairs from widest pairs.  With rest the indices in neither J nor K and
    J' = J | rest, J' & K = J & K, so <J & K> <= <J> meet <K> <= <J'> meet
    <K> = <J & K> whenever (J', K) holds: the pair holds too.  Its orbit
    bound min(|<J>|, |<K>|) / |<J & K>| is at most that of (J', K), so a
    wider pair inside the cap also puts the pair inside it.  Only when
    (J', K) fails or is over the cap is the pair met itself (_holds), so
    each pair's outcome, and the first failure (the witness) or budget
    raise, is the one the direct meet gives.

    Widest pairs from superpairs.  A widest pair (A, B) has A | B covering
    every index and neither side containing the other.  Say |B - A| >= 2
    (otherwise swap the names) and take i in B - A; _widest_holds takes
    the lowest such i, from the lower mask when it has two.  Then
    (A + i, B) is a widest pair too, and (A + i) & B = (A & B) + i.  If
    (A + i, B) holds, then, in any group, since <A> <= <A + i>,

        <A> meet <B> = <A> meet (<A + i> meet <B>) = <A> meet <(A & B) + i>,

    and A & ((A & B) + i) = A & B as i is not in A.  So (A, B) holds
    exactly when the narrow pair (A, (A & B) + i) does, and the narrow
    pair is decided by the first step: its widest superpair is (every
    index but i, (A & B) + i), and only if that is not known to hold is
    the narrow pair met.  The narrow pair's orbit bound is at most
    |<(A & B) + i>| / |<A & B>|, and never exceeds the widest pair's own
    bound min(|<A>|, |<B>|) / |<A & B>|, which is checked against the cap
    first, so the narrow meet cannot raise.  A widest pair whose superpair
    is not known to hold is met at full width, and a raise there counts
    as not known to hold; so are the r(r-1)/2 base pairs (every index but
    b, every index but a), which have no superpair.

    Verdicts do not depend on the route.  A widest pair's verdict always
    means "holds, and its own bound is within the cap", whichever step
    decides it, so a pair read as not known to hold only sends the pairs
    below it to their own meets: that changes which meets are made, never
    a verdict, the witness or a budget raise.  Deciding a narrow pair can
    lead back to a widest pair still being decided, so _widest_holds
    marks each pair not known to hold before it recurses; without the
    mark the recursion cycles.  None of the steps uses the commuting
    property or the interval reduction, so the oracle stays independent
    of the recursive check.
    """
    if s.rank > _NAIVE_MAX_RANK:
        raise IPBudgetExceeded(
            f"naive oracle skipped: rank {s.rank} is over its cap of "
            f"{_NAIVE_MAX_RANK}"
        )
    lattice = lattice or SubsetLattice(s.gens)
    full = (1 << s.rank) - 1
    verdicts = {}

    # A pair fails exactly when its mirror does, and the mirror of (j, k)
    # with j > k comes earlier in the ordered scan, so the unordered pairs
    # give the same first witness.
    for mask_j in range(1, full + 1):
        for mask_k in range(mask_j + 1, full + 1):
            meet = mask_j & mask_k
            if meet in (mask_j, mask_k):
                continue  # one side contains the other: holds trivially
            if not _holds(lattice, verdicts, mask_j, mask_k):
                to_set = lambda m: frozenset(
                    i for i in range(s.rank) if m >> i & 1
                )
                return IPResult(False, (to_set(mask_j), to_set(mask_k)))
    return IPResult(True)


def _check_recursive(s: Sggi, lattice=None) -> IPResult:
    """Interval sweep equivalent of the standard recursion.

    The intersection property holds iff the rank-2 base cases and the
    interval condition |<lo..hi-1> meet <lo+1..hi>| = |<lo+1..hi-1>| hold
    for every interval (McMullen and Schulte, Abstract Regular Polytopes,
    Prop. 2E16).  Intervals are visited in (length, lo) order.  One whose
    meet is past the orbit cap is passed over, so a later interval can
    still disprove the property; otherwise the check ends in a budget skip.
    """
    lattice = lattice or SubsetLattice(s.gens)
    for lo in range(s.rank - 1):
        if s.gens[lo] == s.gens[lo + 1]:
            return IPResult(False, (frozenset([lo]), frozenset([lo + 1])))

    skipped = None
    for length in range(3, s.rank + 1):
        for lo in range(0, s.rank - length + 1):
            hi = lo + length - 1
            try:
                held = _pair_holds(lattice, _interval_mask(lo, hi - 1),
                                   _interval_mask(lo + 1, hi))
            except IPBudgetExceeded as exc:
                skipped = skipped or f"interval [{lo},{hi}]: {exc}"
                continue
            if not held:
                return IPResult(
                    False,
                    (frozenset(range(lo, hi)), frozenset(range(lo + 1, hi + 1))),
                )
    if skipped is not None:
        raise IPBudgetExceeded(skipped)
    return IPResult(True)


def check_intersection_property(s: Sggi, mode="recursive", lattice=None) -> IPResult:
    """Decide whether the sggi is a string C-group.

    naive mode is the ground-truth oracle over every pair of generator
    subsets, every pair decided, most by a wider pair and most of those by
    a narrow meet inside a superpair (order equality suffices since
    containment always holds);
    recursive mode applies the standard interval reduction.  Both return a
    witness pair of index sets on failure; the naive witness is the first
    failing pair in increasing-bitmask order.  A SubsetLattice may be shared
    between calls to reuse subgroup chains and meets.
    """
    if mode == "naive":
        return _check_naive(s, lattice)
    if mode == "recursive":
        return _check_recursive(s, lattice)
    raise ValueError(f"unknown mode {mode!r}")


__all__ = [
    "Sggi",
    "SggiError",
    "SchlafliSymbol",
    "IndexSet",
    "IPResult",
    "IPBudgetExceeded",
    "schlafli",
    "dual",
    "is_independent",
    "check_intersection_property",
]
