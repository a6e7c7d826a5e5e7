"""Sggi validation, Schlafli symbols, duality and intersection checks."""

import gc
import itertools
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringc import sggi
from stringc.ambients import named_ambient
from stringc.families import instantiate_family
from stringc.perms import (
    PermGroup,
    Permutation,
    StabilizerChain,
    brute_force_elements,
    parse_perm,
)
from stringc.prgraph import graph_to_sggi
from stringc.sggi import (
    IPBudgetExceeded,
    IPResult,
    SchlafliSymbol,
    Sggi,
    SggiError,
    SubsetLattice,
    check_intersection_property,
    dual,
    is_independent,
    schlafli,
)


def mk(degree, *texts, strict=True):
    return Sggi([parse_perm(t, degree) for t in texts], strict=strict)


def simplex(n):
    """Coxeter generators of Sym_n: adjacent transpositions."""
    return Sggi([parse_perm(f"({i},{i + 1})", n) for i in range(1, n)])


def random_sggi(rng, degree, rank):
    """Random valid sggi by rejection: random matchings per position."""
    points = list(range(1, degree + 1))

    def random_involution():
        pts = points[:]
        rng.shuffle(pts)
        k = rng.randint(1, degree // 2)
        cycles = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
        return Permutation.from_cycles([list(c) for c in cycles], degree)

    for _ in range(4000):
        gens = [random_involution() for _ in range(rank)]
        try:
            return Sggi(gens)
        except SggiError:
            continue
    raise AssertionError("could not sample a random sggi")


def _involutions(name):
    group = named_ambient(name)
    return sorted(g for g in brute_force_elements(group.generators, group.degree)
                  if g.is_involution())


AMBIENT_INVOLUTIONS = {name: _involutions(name)
                       for name in ("sym4-deg4", "c2wrS3-deg6")}


@st.composite
def ambient_sggis(draw):
    """Generator tuples of rank 1..4 in a small ambient, as the search
    builds them: each generator commutes with all but its predecessor.
    Repeated generators are allowed."""
    pool = AMBIENT_INVOLUTIONS[draw(st.sampled_from(sorted(AMBIENT_INVOLUTIONS)))]
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        fits = [g for g in pool if all(g * h == h * g for h in gens[:-1])]
        if not fits:
            break
        gens.append(draw(st.sampled_from(fits)))
    return Sggi(gens, strict=False)


def reference_naive(s):
    """The naive oracle with every non-nested pair met directly, in the
    same increasing-bitmask order: the reference for the wider-pair scan."""
    lattice = SubsetLattice(s.gens)
    full = (1 << s.rank) - 1
    to_set = lambda m: frozenset(i for i in range(s.rank) if m >> i & 1)
    for mask_j in range(1, full + 1):
        for mask_k in range(mask_j + 1, full + 1):
            meet = mask_j & mask_k
            if meet in (mask_j, mask_k):
                continue
            if lattice.intersection_order(mask_j, mask_k) != lattice.order(meet):
                return IPResult(False, (to_set(mask_j), to_set(mask_k)))
    return IPResult(True)


def perturbed_simplex(rng, rank):
    """Non-strict sggi: the Coxeter generators of Sym(rank + 1) on shuffled
    points among rank + 1 or rank + 2, with up to two generators after the
    first replaced by an involution that keeps the commuting rule, often a
    repeat or a product of generators.  Failures then come late in the
    scan, and many wider pairs fail."""
    degree = rank + rng.randint(1, 2)
    points = list(range(degree))
    rng.shuffle(points)
    gens = []
    for a, b in zip(points, points[1:rank + 1]):
        images = list(range(degree))
        images[a], images[b] = b, a
        gens.append(Permutation(images))
    pool = [Permutation(p) for p in itertools.permutations(range(degree))
            if p != tuple(range(degree)) and all(p[p[i]] == i for i in p)]
    for pos in rng.sample(range(1, rank), rng.randint(0, 2)):
        fits = [g for g in pool if all(g * h == h * g for i, h in
                                       enumerate(gens) if abs(i - pos) > 1)]
        derived = [g for g in gens + [a * b for a in gens for b in gens]
                   if g in fits and g != gens[pos]]
        gens[pos] = rng.choice(derived if derived and rng.random() < 0.5
                               else fits)
    return Sggi(gens, strict=False)


@pytest.fixture(scope="module")
def perturbed_simplices():
    rng = random.Random(13)
    return [perturbed_simplex(rng, rng.randint(5, 6)) for _ in range(24)]


class TestMakeSggi:
    def test_coxeter_a3(self):
        s = mk(4, "(1,2)", "(2,3)", "(3,4)")
        assert s.rank == 3 and s.degree == 4

    def test_rank_two_always_accepted(self):
        s = mk(3, "(1,2)", "(1,3)")
        assert s.rank == 2

    def test_commuting_violation_reports_pair(self):
        with pytest.raises(SggiError) as exc:
            mk(3, "(1,2)", "(2,3)", "(1,3)")
        assert exc.value.pair == (0, 2)

    def test_identity_rejected(self):
        with pytest.raises(SggiError):
            mk(3, "(1,2)", "id")

    def test_non_involution_rejected(self):
        with pytest.raises(SggiError):
            mk(4, "(1,2,3)", "(3,4)")

    def test_duplicates_rejected_strictly(self):
        with pytest.raises(SggiError) as exc:
            mk(4, "(1,2)", "(3,4)", "(1,2)")
        assert exc.value.pair == (0, 2)

    def test_rank_one_accepted(self):
        assert mk(2, "(1,2)").rank == 1


class TestSchlafli:
    def test_simplex(self):
        assert str(schlafli(simplex(5))) == "{3,3,3}"

    def test_rank_n_minus_2_graph_degree_7(self):
        # Path with labels 1,0,1,2,3 on 7 points.
        s = mk(7, "(2,3)", "(1,2)(3,4)", "(4,5)", "(5,6)", "(6,7)")
        assert tuple(schlafli(s)) == (4, 6, 3, 3)

    def test_entries_at_least_two(self):
        with pytest.raises(SggiError):
            SchlafliSymbol([3, 1])


class TestDual:
    def test_rank2_swap(self):
        s = mk(3, "(1,2)", "(2,3)")
        assert dual(s).gens == s.gens[::-1]

    def test_involution_on_values(self):
        s = mk(7, "(2,3)", "(1,2)(3,4)", "(4,5)", "(5,6)", "(6,7)")
        assert dual(dual(s)) == s

    def test_schlafli_reverses(self):
        s = mk(7, "(2,3)", "(1,2)(3,4)", "(4,5)", "(5,6)", "(6,7)")
        assert schlafli(dual(s)) == schlafli(s)[::-1]
        assert tuple(schlafli(dual(s))) == (3, 3, 6, 4)

    def test_simplex_palindromic(self):
        s = simplex(5)
        assert schlafli(dual(s)) == schlafli(s)


class TestIndependence:
    def test_simplex_independent(self):
        assert is_independent(simplex(4))

    def test_product_generator_dependent(self):
        s = mk(4, "(1,2)", "(3,4)", "(1,2)(3,4)", strict=False)
        assert not is_independent(s)

    @staticmethod
    def _check_against_definition(sggis):
        """is_independent against closure, and the interval-order bound
        |<g_0..g_{i-1}>| |<g_{i+1}..g_{r-1}>| < |G| against every g_i it
        decides.  Returns the number of dependent sggis and of independent
        generators that the bound leaves to the chain."""
        dependent = undecided = 0
        for s in sggis:
            order = lambda gens: len(brute_force_elements(gens, s.degree))
            member = [g in brute_force_elements(s.gens[:i] + s.gens[i + 1:],
                                                s.degree)
                      for i, g in enumerate(s.gens)]
            assert is_independent(s) == (not any(member)), s
            dependent += any(member)
            for i in range(s.rank):
                if order(s.gens[:i]) * order(s.gens[i + 1:]) < order(s.gens):
                    assert not member[i], (s, i)
                else:
                    undecided += not member[i]
        return dependent, undecided

    def test_matches_definition_on_randoms(self):
        rng = random.Random(23)
        sggis = [random_sggi(rng, rng.randint(4, 8), rng.randint(2, 4))
                 for _ in range(40)]
        dependent, undecided = self._check_against_definition(sggis)
        assert 0 < dependent < len(sggis)
        assert undecided > 0

    def test_matches_definition_on_perturbed_simplices(self,
                                                       perturbed_simplices):
        dependent, _ = self._check_against_definition(perturbed_simplices)
        assert 0 < dependent < len(perturbed_simplices)

    def test_matches_definition_with_repeats(self):
        # Non-strict lists with a generator repeated at another position,
        # kept wherever the commuting rule still holds.
        rng = random.Random(29)
        sggis = []
        while len(sggis) < 30:
            s = random_sggi(rng, rng.randint(4, 8), rng.randint(2, 4))
            gens = list(s.gens)
            gens.insert(rng.randint(0, s.rank), rng.choice(s.gens))
            try:
                sggis.append(Sggi(gens, strict=False))
            except SggiError:
                continue
        dependent, _ = self._check_against_definition(sggis)
        assert dependent == len(sggis)

    @pytest.mark.parametrize("family_id", ["T4#1", "T6#21", "P61#1"])
    def test_catalog_decided_by_interval_orders(self, family_id):
        # The bound decides every generator of these instances, so the
        # lattice holds chains of intervals only: no <all but g_i> is built.
        s = graph_to_sggi(instantiate_family(family_id, {"n": 14}))
        lattice = SubsetLattice(s.gens)
        assert is_independent(s, lattice=lattice)
        for mask in lattice._chains:
            low = mask & -mask
            assert mask & (mask + low) == 0, bin(mask)  # contiguous bits

    @pytest.mark.parametrize("n", [14, 16])
    def test_t8_6_fails_through_chain_fallback(self, n):
        # g_0 of T8#6 lies in <g_1..g_{r-1}>; the bound leaves it to the
        # chain, which finds it.
        s = graph_to_sggi(instantiate_family("T8#6", {"n": n}))
        lattice = SubsetLattice(s.gens)
        full = (1 << s.rank) - 1
        assert not is_independent(s, lattice=lattice)
        assert lattice.order(full & ~1) == lattice.order(full)
        assert lattice.chain(full & ~1).contains(s.gens[0])


class TestIntersectionProperty:
    def test_simplex_rank4(self):
        s = simplex(5)
        assert check_intersection_property(s, "naive").passed
        assert check_intersection_property(s, "recursive").passed

    def test_repeated_generator_fails_with_least_witness(self):
        s = mk(3, "(1,2)", "(2,3)", "(1,2)", strict=False)
        res = check_intersection_property(s, "naive")
        assert not res.passed
        assert res.witness == (frozenset([0]), frozenset([2]))
        assert not check_intersection_property(s, "recursive").passed

    def test_ip_implies_independent_on_randoms(self):
        rng = random.Random(42)
        for _ in range(30):
            s = random_sggi(rng, rng.randint(4, 8), rng.randint(2, 4))
            if check_intersection_property(s, "naive").passed:
                assert is_independent(s)

    def test_modes_agree_on_randoms(self):
        rng = random.Random(7)
        for _ in range(60):
            s = random_sggi(rng, rng.randint(4, 10), rng.randint(2, 4))
            naive = check_intersection_property(s, "naive")
            recursive = check_intersection_property(s, "recursive")
            assert naive.passed == recursive.passed, s

    def test_naive_witness_is_first_failing_ordered_pair(self):
        # The oracle scans unordered pairs; its witness must still be the
        # first failing pair of the full ordered scan, done here by closure.
        rng = random.Random(19)
        failures = 0
        for _ in range(25):
            s = random_sggi(rng, rng.randint(4, 8), rng.randint(2, 4))
            full = (1 << s.rank) - 1
            closures = {
                m: brute_force_elements(
                    [g for i, g in enumerate(s.gens) if m >> i & 1], s.degree)
                for m in range(full + 1)
            }
            expected = next(
                ((j, k) for j in range(1, full + 1) for k in range(1, full + 1)
                 if len(closures[j] & closures[k]) != len(closures[j & k])),
                None,
            )
            res = check_intersection_property(s, "naive")
            if expected is None:
                assert res.passed
                continue
            failures += 1
            to_set = lambda m: frozenset(i for i in range(s.rank) if m >> i & 1)
            assert res.witness == (to_set(expected[0]), to_set(expected[1]))
        assert failures >= 5

    def test_rank_bound_for_independent_sggis(self):
        # Independent sggis of degree n have rank at most n-1; at rank n-1
        # (n >= 7) the group is the full symmetric group.
        s = simplex(8)
        assert is_independent(s)
        assert s.rank == s.degree - 1
        assert PermGroup(list(s.gens), s.degree).order() == 40320

    def test_rank_bound_on_random_independent_sggis(self):
        rng = random.Random(6)
        checked = 0
        for _ in range(40):
            s = random_sggi(rng, rng.randint(4, 9), rng.randint(2, 4))
            if is_independent(s):
                assert s.rank <= s.degree - 1
                checked += 1
        assert checked > 0

    def test_dihedral_rank2(self):
        s = mk(5, "(1,2)(3,4)", "(2,3)(4,5)")
        assert check_intersection_property(s, "naive").passed
        assert check_intersection_property(s, "recursive").passed


class TestNaiveWiderPairs:
    """The naive oracle, which skips a pair whose widest superpair holds,
    against reference_naive, which meets every pair."""

    @staticmethod
    def _outcome(oracle, s):
        try:
            result = oracle(s)
        except IPBudgetExceeded as exc:
            return str(exc)
        return result.passed, result.witness

    def test_matches_reference_on_perturbed_simplices(self, perturbed_simplices):
        verdicts = []
        for s in perturbed_simplices:
            got = check_intersection_property(s, "naive")
            want = reference_naive(s)
            assert (got.passed, got.witness) == (want.passed, want.witness), s
            verdicts.append(got.passed)
        assert 5 <= sum(verdicts) <= len(verdicts) - 5

    @pytest.mark.parametrize("family_id", ["T4#5", "T8#5", "T8#6", "T8#7"])
    def test_matches_reference_on_catalog(self, family_id):
        s = graph_to_sggi(instantiate_family(family_id, {"n": 14}))
        lattice = SubsetLattice(s.gens)
        got = check_intersection_property(s, "naive", lattice=lattice)
        want = reference_naive(s)
        assert (got.passed, got.witness) == (want.passed, want.witness)
        if got.passed:
            # Every superpair held, so the only pairs met at full width are
            # the base pairs (every index but b, every index but a), and
            # every other meet is a narrow pair (A, (A & B) + i) of a
            # widest pair (A, B) with i in B - A and |B - A| >= 2.
            full = (1 << s.rank) - 1
            met = {frozenset(pair) for pair in lattice._pair_orders}
            base = {frozenset((full & ~(1 << a), full & ~(1 << b)))
                    for a, b in itertools.combinations(range(s.rank), 2)}
            assert {p for p in met if min(p) | max(p) == full} == base
            assert len(base) == s.rank * (s.rank - 1) // 2
            narrow = {
                frozenset((a, (a & b) | 1 << i))
                for a in range(full + 1) for b in range(full + 1)
                if a | b == full and a & ~b and b & ~a
                and bin(b & ~a).count("1") >= 2
                for i in range(s.rank) if (b & ~a) >> i & 1
            }
            assert met - base <= narrow

    def test_fixture_meets_narrow_pairs_whose_superpair_fails(
            self, perturbed_simplices, monkeypatch):
        # A narrow pair (A, N), N - A = {j}, of a holding widest pair is
        # met directly only when its co-singleton superpair (every index
        # but j, N) is not known to hold.  The comparisons with
        # reference_naive test that branch only if the fixture reaches it
        # with a superpair that fails.
        walks, met = [0], []
        widest_holds, pair_holds = sggi._widest_holds, sggi._pair_holds

        def walk(*args):
            walks[0] += 1
            try:
                return widest_holds(*args)
            finally:
                walks[0] -= 1

        def meet(lattice, mask_j, mask_k):
            full = (1 << len(lattice.generators)) - 1
            if walks[0] and mask_j | mask_k != full:  # not a widest pair
                met.append((lattice, full, mask_j, mask_k))
            return pair_holds(lattice, mask_j, mask_k)

        monkeypatch.setattr(sggi, "_widest_holds", walk)
        monkeypatch.setattr(sggi, "_pair_holds", meet)
        for s in perturbed_simplices:
            check_intersection_property(s, "naive")
        failing = 0
        for lattice, full, a, n in met:
            j = n & ~a
            assert j and not j & (j - 1)
            failing += not pair_holds(lattice, full & ~j, n)
        assert failing > 0

    @pytest.mark.parametrize("cap", [0, 2, 6, 12])
    def test_budget_raises_match_reference(self, perturbed_simplices,
                                           monkeypatch, cap):
        # A wider pair over the cap must not count as holding: the pair
        # is then met itself and raises, or not, as the reference does.
        monkeypatch.setattr("stringc.sggi._ORBIT_CAP", cap)
        raised = 0
        for s in perturbed_simplices:
            got = self._outcome(
                lambda s: check_intersection_property(s, "naive"), s)
            assert got == self._outcome(reference_naive, s), s
            raised += isinstance(got, str)
        assert raised > 0

    @pytest.mark.parametrize("family_id", ["T4#5", "T8#5"])
    def test_lattice_freed_without_collector(self, family_id):
        # The oracle must leave no reference cycle through the lattice: a
        # lattice kept until the collector runs raises the peak memory of
        # a verify sweep.
        s = graph_to_sggi(instantiate_family(family_id, {"n": 14}))
        enabled = gc.isenabled()
        gc.disable()
        try:
            lattice = SubsetLattice(s.gens)
            ref = weakref.ref(lattice)
            check_intersection_property(s, "naive", lattice=lattice)
            del lattice
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    # One instance of each rank-8 table at n = 16, a failing one included,
    # and REP2N#1, whose n is that of Sym_n on 2n = 16 points.
    @pytest.mark.parametrize("family_id, params", [
        ("T5#13", {"n": 16}),
        ("T6#17", {"n": 16, "i": 2}),
        ("T8#4", {"n": 16, "i": 2}),
        ("T8#5", {"n": 16}),
        ("P61#1", {"n": 16}),
        ("REP2N#1", {"n": 8}),
    ], ids=["T5#13", "T6#17-i2", "T8#4-i2", "T8#5", "P61#1", "REP2N#1"])
    def test_agrees_with_recursive_at_degree_16(self, family_id, params):
        s = graph_to_sggi(instantiate_family(family_id, params))
        assert s.degree == 16
        lattice = SubsetLattice(s.gens)
        recursive = check_intersection_property(s, "recursive", lattice=lattice)
        naive = check_intersection_property(s, "naive", lattice=lattice)
        assert naive.passed == recursive.passed
        assert naive.passed == (family_id != "T8#5")
        if naive.witness is not None:
            j, k = (sum(1 << i for i in side) for side in naive.witness)
            assert lattice.intersection_order(j, k) != lattice.order(j & k)


class TestNaiveRankCap:
    def test_rank_over_cap_raises_before_any_meet(self, monkeypatch):
        # HIGHC#1 at n = 16 has rank 15, over the cap of 12.
        def no_meet(*args):
            raise AssertionError("the naive scan met a pair")

        monkeypatch.setattr(SubsetLattice, "intersection_order", no_meet)
        s = graph_to_sggi(instantiate_family("HIGHC#1", {"n": 16}))
        started = time.perf_counter()
        with pytest.raises(IPBudgetExceeded, match="rank 15 is over its cap"):
            check_intersection_property(s, "naive")
        assert time.perf_counter() - started < 1

    def test_rank_at_cap_is_scanned(self, monkeypatch):
        # Rank 12 passes the rank cap, so the first meet meets the orbit cap.
        monkeypatch.setattr("stringc.sggi._ORBIT_CAP", 0)
        s = graph_to_sggi(instantiate_family("HIGHC#1", {"n": 13}))
        with pytest.raises(IPBudgetExceeded, match="cap of 0"):
            check_intersection_property(s, "naive")


class TestIntersectionOrder:
    def test_matches_element_sets_on_randoms(self):
        # Every mask pair of random sggis of degree <= 8, against both the
        # closure oracle and the lattice's own element sets.
        rng = random.Random(11)
        pairs = 0
        for _ in range(12):
            s = random_sggi(rng, rng.randint(4, 8), rng.randint(2, 4))
            lattice = SubsetLattice(s.gens)
            masks = range(1, 1 << s.rank)
            closures = {m: brute_force_elements(lattice.gens(m), s.degree)
                        for m in masks}
            for j in masks:
                for k in masks:
                    expected = len(closures[j] & closures[k])
                    assert lattice.intersection_order(j, k) == expected
                    assert expected == len(
                        lattice.element_set(j) & lattice.element_set(k))
                    pairs += 1
        assert pairs > 500

    def test_generator_lists_with_identity_and_repeats(self):
        # The lattice over a plain generator list, as analysis builds over
        # block images: each list holds the identity and a repeated entry
        # (T7's rho_0 is the all-swap, the identity on the columns).  Every
        # mask's order and membership, and every pair's meet, against
        # closure.
        rng = random.Random(7)
        for _ in range(30):
            degree = rng.randint(3, 6)
            points = list(range(degree))
            gens = []
            for _ in range(rng.randint(1, 3)):
                rng.shuffle(points)
                gens.append(Permutation(points))
            gens.insert(rng.randint(0, len(gens)), Permutation.identity(degree))
            gens.insert(rng.randint(0, len(gens)), rng.choice(gens))
            lattice = SubsetLattice(gens)
            assert lattice.degree == degree
            masks = range(1 << len(gens))
            closures = {m: brute_force_elements(lattice.gens(m), degree)
                        for m in masks}
            every = [Permutation(p)
                     for p in itertools.permutations(range(degree))]
            for m in masks:
                assert lattice.order(m) == len(closures[m])
                chain = lattice.chain(m)
                assert {g for g in every if chain.contains(g)} == closures[m]
            for j in masks:
                for k in masks:
                    assert lattice.intersection_order(j, k) == len(
                        closures[j] & closures[k])

    def test_coprime_orders_meet_without_an_orbit(self, monkeypatch):
        # |<J>| = 2 and |<K>| = 3 have gcd 1 = |<J & K>|, which decides the
        # meet with no coset orbit; the cap is checked first, so the pair
        # still raises when its orbit bound of 2 is over the cap.
        monkeypatch.setattr(StabilizerChain, "coset_orbit_size", None)
        gens = [parse_perm("(1,2)", 5), parse_perm("(3,4,5)", 5)]
        assert SubsetLattice(gens).intersection_order(0b01, 0b10) == 1
        monkeypatch.setattr("stringc.sggi._ORBIT_CAP", 1)
        with pytest.raises(IPBudgetExceeded, match="may need 2 cosets"):
            SubsetLattice(gens).intersection_order(0b01, 0b10)

    def test_orders_and_membership_on_commuting_lists(self):
        # Generator lists of degree 6 whose generators each move the left
        # half, the right half or any points, so that some pairs commute:
        # every mask's order and chain membership against closure.
        rng = random.Random(59)
        every = [Permutation(p) for p in itertools.permutations(range(6))]
        for _ in range(10):
            points = list(range(6))
            rng.shuffle(points)
            gens = []
            for _ in range(rng.randint(4, 5)):
                moved = rng.choice([points[:3], points[3:]] * 2 + [points])
                images = list(range(6))
                for a, b in zip(moved, rng.sample(moved, len(moved))):
                    images[a] = b
                gens.append(Permutation(images))
            lattice = SubsetLattice(gens)
            for m in range(1 << len(gens)):
                closure = brute_force_elements(lattice.gens(m), 6)
                assert lattice.order(m) == len(closure)
                chain = lattice.chain(m)
                assert {g for g in every if chain.contains(g)} == closure

    def test_cap_raises_budget_exceeded(self, monkeypatch):
        monkeypatch.setattr("stringc.sggi._ORBIT_CAP", 0)
        s = simplex(5)
        with pytest.raises(IPBudgetExceeded, match="cap of 0"):
            SubsetLattice(s.gens).intersection_order(0b0011, 0b0110)
        with pytest.raises(IPBudgetExceeded, match=r"interval \[0,2\]"):
            check_intersection_property(s, "recursive")


@settings(max_examples=60, deadline=None)
@given(s=ambient_sggis(), data=st.data())
def test_lattice_orders_and_meets_match_closures(s, data):
    # Every mask, the empty one included, and every pair of masks; the
    # orders are asked in a drawn order, so chains are built, and extended
    # from their subsets' chains, in varying order.
    lattice = SubsetLattice(s.gens)
    masks = range(1 << s.rank)
    closures = {m: brute_force_elements(lattice.gens(m), s.degree)
                for m in masks}
    for m in data.draw(st.permutations(masks)):
        assert lattice.order(m) == len(closures[m])
    for j in masks:
        for k in masks:
            assert lattice.intersection_order(j, k) == len(
                closures[j] & closures[k])
