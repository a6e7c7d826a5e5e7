"""Sggi validation, Schlafli symbols, duality and intersection checks."""

import random

import pytest

from stringc.perms import (
    PermGroup,
    Permutation,
    brute_force_elements,
    parse_perm,
)
from stringc.sggi import (
    IPBudgetExceeded,
    SchlafliSymbol,
    Sggi,
    SggiError,
    SubsetLattice,
    check_intersection_property,
    dual,
    is_independent,
    parabolic,
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


class TestParabolic:
    def test_drop_first_generator(self):
        s = simplex(5)
        p = parabolic(s, {1, 2, 3})
        assert p.rank == 3
        assert PermGroup(list(p.gens), 5).order() == 24

    def test_interval(self):
        s = simplex(5)
        p = parabolic(s, {0, 1, 2})
        assert PermGroup(list(p.gens), 5).order() == 24

    def test_empty_rejected(self):
        with pytest.raises(SggiError):
            parabolic(simplex(5), [])

    def test_single_generator_of_catalog_instance(self):
        from stringc.families import instantiate_family
        from stringc.prgraph import graph_to_sggi

        s = graph_to_sggi(instantiate_family("T6#17", {"n": 16, "i": 3}))
        p = parabolic(s, [0])
        assert PermGroup(list(p.gens), 16).order() == 2


class TestIndependence:
    def test_simplex_independent(self):
        assert is_independent(simplex(4))

    def test_product_generator_dependent(self):
        s = mk(4, "(1,2)", "(3,4)", "(1,2)(3,4)", strict=False)
        assert not is_independent(s)


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


class TestIntersectionOrder:
    def test_matches_element_sets_on_randoms(self):
        # Every mask pair of random sggis of degree <= 8, against both the
        # closure oracle and the lattice's own element sets.
        rng = random.Random(11)
        pairs = 0
        for _ in range(12):
            s = random_sggi(rng, rng.randint(4, 8), rng.randint(2, 4))
            lattice = SubsetLattice(s)
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

    def test_cap_raises_budget_exceeded(self, monkeypatch):
        monkeypatch.setattr("stringc.sggi._ORBIT_CAP", 0)
        s = simplex(5)
        with pytest.raises(IPBudgetExceeded, match="cap of 0"):
            SubsetLattice(s).intersection_order(0b0011, 0b0110)
        with pytest.raises(IPBudgetExceeded, match=r"interval \[0,2\]"):
            check_intersection_property(s, "recursive")
