"""Permutation and group engine tests, including brute-force oracles."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringc.perms import (
    BlockSystem,
    PermError,
    PermGroup,
    Permutation,
    StabilizerChain,
    brute_force_elements,
    brute_force_order,
    intersection_order_bounded,
    parse_perm,
)


def grp(degree, *cycle_strings):
    return PermGroup([parse_perm(s, degree) for s in cycle_strings], degree)


class TestParse:
    def test_disjoint_transpositions(self):
        p = parse_perm("(1,2)(3,4)", 4)
        assert p.images == (1, 0, 3, 2)
        assert [p.apply(i) for i in range(1, 5)] == [2, 1, 4, 3]

    def test_identity_spellings(self):
        assert parse_perm("id", 5) == Permutation.identity(5)
        assert parse_perm("()", 5).is_identity()

    def test_sixteen_point_involution(self):
        # The computed generator printed for the degree-16 block case.
        p = parse_perm("(1,10)(2,9)(3,12)(4,11)(5,16)(6,15)(7,14)(8,13)", 16)
        assert p.is_involution()
        assert p.cycle_type() == (2,) * 8
        assert p.apply(5) == 16 and p.apply(13) == 8

    def test_whitespace_insignificant(self):
        assert parse_perm(" ( 1 , 2 ) ( 3 , 4 ) ", 4) == parse_perm("(1,2)(3,4)", 4)

    def test_repeated_point_rejected(self):
        with pytest.raises(PermError):
            parse_perm("(1,2)(2,3)", 4)

    def test_point_beyond_degree_rejected(self):
        with pytest.raises(PermError):
            parse_perm("(1,5)", 4)

    def test_malformed_rejected(self):
        for bad in ["(1,2", "1,2", "(1)", "(1,2)x", "(a,b)"]:
            with pytest.raises(PermError):
                parse_perm(bad, 4)

    def test_round_trip(self):
        for text in ["(1,2)(3,4)", "(1,3,2)", "id", "(2,5)(3,4)"]:
            p = parse_perm(text, 6)
            assert parse_perm(str(p), 6) == p


@settings(max_examples=60)
@given(st.permutations(list(range(7))))
def test_round_trip_random(images):
    p = Permutation(images)
    assert parse_perm(str(p), 7) == p
    assert (p * p.inverse()).is_identity()


class TestPermutationAlgebra:
    def test_composition_left_to_right(self):
        p = parse_perm("(1,2)", 3)
        q = parse_perm("(2,3)", 3)
        assert (p * q).apply(1) == 3  # 1 ->p 2 ->q 3

    def test_power_and_order(self):
        c = parse_perm("(1,2,3,4,5)", 5)
        assert c.order() == 5
        assert (c**5).is_identity()
        assert c**-1 == c.inverse()

    def test_parity(self):
        assert not parse_perm("(1,2)", 4).is_even()
        assert parse_perm("(1,2,3)", 4).is_even()

    def test_pickle_round_trip(self):
        # Search work items carry permutations to worker processes.
        p = parse_perm("(1,3,2)(4,5)", 6)
        q = pickle.loads(pickle.dumps(p))
        assert q == p and type(q) is Permutation
        with pytest.raises(AttributeError):
            q.images = ()


class TestOrder:
    def test_sym4(self):
        assert grp(4, "(1,2)", "(2,3)", "(3,4)").order() == 24

    def test_klein(self):
        assert grp(4, "(1,2)(3,4)", "(1,3)(2,4)").order() == 4

    def test_trivial_group(self):
        assert PermGroup([], 5).order() == 1

    def test_wreath_c2_s7(self):
        gens = [parse_perm("(1,8)", 14)] + [
            parse_perm(f"({i},{i + 1})({i + 7},{i + 8})", 14) for i in range(1, 7)
        ]
        assert PermGroup(gens).order() == 2**7 * 5040

    def test_order_independent_of_generator_order(self):
        gens = ["(1,2)", "(2,3)(4,5)", "(1,4)"]
        orders = {
            grp(5, *perm).order()
            for perm in [gens, gens[::-1], [gens[1], gens[0], gens[2]]]
        }
        assert len(orders) == 1

    def test_random_small_groups_match_brute_force(self):
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randint(3, 8)
            gens = []
            for _ in range(rng.randint(1, 3)):
                images = list(range(n))
                rng.shuffle(images)
                gens.append(Permutation(images))
            gens = [g for g in gens if not g.is_identity()]
            if not gens:
                continue
            assert PermGroup(gens, n).order() == brute_force_order(gens, n)


class TestMembership:
    def test_products_of_generators_are_members(self):
        g = grp(6, "(1,2,3)", "(3,4)(5,6)")
        rng = random.Random(11)
        for _ in range(100):
            word = [rng.choice(g.generators) for _ in range(rng.randint(1, 6))]
            prod = word[0]
            for w in word[1:]:
                prod = prod * w
            assert prod in g

    def test_odd_permutation_not_in_even_group(self):
        a5 = grp(5, "(1,2,3)", "(3,4,5)")
        assert a5.order() == 60
        rng = random.Random(5)
        images = list(range(5))
        while True:
            rng.shuffle(images)
            p = Permutation(images)
            if not p.is_even():
                break
        assert p not in a5

    def test_every_generator_is_member(self):
        g = grp(7, "(1,2)", "(1,2,3,4,5,6,7)")
        assert all(x in g for x in g.generators)


class TestTransitivity:
    def test_transitive(self):
        assert grp(3, "(1,2)", "(2,3)").is_transitive()

    def test_intransitive(self):
        assert not grp(4, "(1,2)").is_transitive()


class TestBlockSystems:
    def test_klein_three_systems(self):
        systems = grp(4, "(1,2)(3,4)", "(1,3)(2,4)").minimal_block_systems()
        assert sorted(s.blocks for s in systems) == [
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        ]

    def test_sym_n_primitive(self):
        for n in range(3, 9):
            cycle = "(" + ",".join(map(str, range(1, n + 1))) + ")"
            g = grp(n, "(1,2)", cycle)
            assert g.minimal_block_systems() == []

    def test_intransitive_rejected(self):
        with pytest.raises(PermError):
            grp(4, "(1,2)").minimal_block_systems()

    def test_systems_invariant_under_generators(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.choice([4, 6, 8])
            gens = []
            for _ in range(2):
                images = list(range(n))
                rng.shuffle(images)
                gens.append(Permutation(images))
            g = PermGroup([x for x in gens if not x.is_identity()] or gens, n)
            if not g.generators or not g.is_transitive():
                continue
            for system in g.minimal_block_systems():
                for gen in g.generators:
                    assert system.is_invariant_under(gen)

    def test_all_block_systems_wreath(self):
        gens = [parse_perm("(1,8)", 14)] + [
            parse_perm(f"({i},{i + 1})({i + 7},{i + 8})", 14) for i in range(1, 7)
        ]
        systems = PermGroup(gens).all_block_systems()
        assert [(s.block_count, s.block_size) for s in systems] == [(7, 2)]

    def test_all_block_systems_c2_x_s7(self):
        # Central all-swap times the diagonal simplex: columns and the two rows.
        gens = [parse_perm("".join(f"({i},{i + 7})" for i in range(1, 8)), 14)] + [
            parse_perm(f"({i},{i + 1})({i + 7},{i + 8})", 14) for i in range(1, 7)
        ]
        systems = PermGroup(gens).all_block_systems()
        shapes = sorted((s.block_count, s.block_size) for s in systems)
        assert (2, 7) in shapes and (7, 2) in shapes

    def test_block_system_validation(self):
        with pytest.raises(PermError):
            BlockSystem(4, [(1, 2), (3,)])
        with pytest.raises(PermError):
            BlockSystem(4, [(1, 2), (2, 3)])


class TestIntersectionOrderBounded:
    def test_backtrack_agrees_with_enumeration(self):
        # Exact order at or under the bound, bound + 1 above it.
        rng = random.Random(17)
        for _ in range(25):
            n = 7
            groups = []
            for _ in range(2):
                gens = []
                for _ in range(2):
                    images = list(range(n))
                    rng.shuffle(images)
                    gens.append(Permutation(images))
                gens = [g for g in gens if not g.is_identity()]
                if not gens:
                    gens = [parse_perm("(1,2)", n)]
                groups.append(PermGroup(gens, n))
            a, b = groups
            expected = len(brute_force_elements(a.generators, n)
                           & brute_force_elements(b.generators, n))
            for bound in (expected, expected + 1, 5040):
                assert intersection_order_bounded(a, b, bound) == expected
            for bound in range(min(expected, 4)):
                assert intersection_order_bounded(a, b, bound) == bound + 1
            assert intersection_order_bounded(a, b, expected - 1) == expected


class TestCosetOrbit:
    def test_orbit_is_index_of_meet(self):
        # |S| / |S meet G| against element sets, for random generators whose
        # chains rarely have a base point that is least in its orbit.
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(3, 7)
            groups = []
            for _ in range(2):
                gens = []
                for _ in range(rng.randint(1, 2)):
                    images = list(range(n))
                    rng.shuffle(images)
                    gens.append(Permutation(images))
                groups.append(gens)
            s_gens, g_gens = groups
            s_elements = brute_force_elements(s_gens, n)
            meet = s_elements & brute_force_elements(g_gens, n)
            orbit = StabilizerChain(g_gens, n).coset_orbit_size(s_gens)
            assert orbit == len(s_elements) // len(meet)

    def test_subgroup_fixes_its_coset(self):
        chain = StabilizerChain([parse_perm("(1,2,3,4,5)", 5),
                                 parse_perm("(1,2)", 5)], 5)
        assert chain.coset_orbit_size([parse_perm("(2,4)(3,5)", 5)]) == 1
