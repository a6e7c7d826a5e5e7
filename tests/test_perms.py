"""Permutation and group engine tests, including brute-force oracles."""

import itertools
import math
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
    intersection_order_bounded,
    parse_perm,
)


def grp(degree, *cycle_strings):
    return PermGroup([parse_perm(s, degree) for s in cycle_strings], degree)


def brute_force_order(generators, degree):
    """Order by plain closure; independent of the stabilizer chain."""
    return len(brute_force_elements(generators, degree))


def random_involution(rng, n):
    """A product of one to n // 2 random disjoint transpositions."""
    images = list(range(n))
    points = rng.sample(images, 2 * rng.randint(1, n // 2))
    for a, b in zip(points[::2], points[1::2]):
        images[a], images[b] = b, a
    return Permutation(images)


def random_perm(rng, n):
    """A random permutation of a random set of 2..n points, so that the
    groups such permutations generate range from cyclic to Sym(n)."""
    images = list(range(n))
    support = rng.sample(images, rng.randint(2, n))
    moved = support[:]
    rng.shuffle(moved)
    for a, b in zip(support, moved):
        images[a] = b
    return Permutation(images)


def random_parts(rng):
    """A partition of 8 to 12 points, shuffled, into parts of one to five
    points, at least one of three or more, whose symmetric groups multiply
    to at most 20,000 elements: closure lists any group fixing every part."""
    while True:
        n = rng.randint(8, 12)
        points = list(range(n))
        rng.shuffle(points)
        parts = []
        while points:
            size = rng.randint(1, 5)
            parts.append(points[:size])
            points = points[size:]
        sizes = [len(part) for part in parts]
        if max(sizes) >= 3 and math.prod(map(math.factorial, sizes)) <= 20000:
            return n, parts


def random_part_perm(rng, n, parts):
    """A random permutation of order above 2 mapping each part onto itself."""
    while True:
        images = list(range(n))
        for part in parts:
            moved = part[:]
            rng.shuffle(moved)
            for a, b in zip(part, moved):
                images[a] = b
        g = Permutation(images)
        if g.order() > 2:
            return g


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

    def test_no_schreier_generator_sifted_twice_in_a_build(self, monkeypatch):
        # A Schreier generator sifted once in a build lies in the deeper
        # levels' group from then on, so a build sifts it at most once per
        # level, also when a new residue sends it back to a level.
        sifts = []
        sift = StabilizerChain._sift

        def recording_sift(self, images, start):
            sifts.append((start, images))
            return sift(self, images, start)

        monkeypatch.setattr(StabilizerChain, "_sift", recording_sift)
        rng = random.Random(71)
        total = 0
        for _ in range(12):
            n = rng.randint(6, 9)
            gens = [random_involution(rng, n) for _ in range(rng.randint(2, 4))]
            sifts.clear()
            chain = StabilizerChain(gens, n)
            assert len(set(sifts)) == len(sifts)
            assert chain.order() == brute_force_order(gens, n)
            total += len(sifts)
        assert total > 100


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
            if sum(len(c) - 1 for c in p.cycles()) % 2:  # odd
                break
        assert p not in a5

    def test_every_generator_is_member(self):
        g = grp(7, "(1,2)", "(1,2,3,4,5,6,7)")
        assert all(x in g for x in g.generators)

    def test_random_non_involution_groups_match_brute_force(self):
        # Transversal elements of such groups are rarely their own inverses,
        # so sift strips a level only if it uses the stored inverse.
        rng = random.Random(53)
        outsiders = 0
        for _ in range(15):
            n = rng.randint(5, 7)
            gens = []
            while len(gens) < 2:
                g = random_perm(rng, n)
                if g.order() > 2:
                    gens.append(g)
            group = PermGroup(gens, n)
            elements = brute_force_elements(gens, n)
            assert all(g in group for g in elements)
            for _ in range(100):
                p = random_perm(rng, n)
                outsiders += p not in elements
                assert (p in group) == (p in elements)
        assert outsiders > 100

    def test_non_involution_groups_up_to_degree_12(self):
        # Degree 8 to 12, each generator of order above 2 and fixing every
        # part of a shuffled partition, so chains run several levels deep
        # on base points that are rarely least.
        rng = random.Random(57)
        outsiders = 0
        for _ in range(8):
            n, parts = random_parts(rng)
            gens = [random_part_perm(rng, n, parts)
                    for _ in range(rng.randint(2, 3))]
            group = PermGroup(gens, n)
            elements = brute_force_elements(gens, n)
            assert group.order() == len(elements)
            assert all(g in group for g in elements)
            for _ in range(60):
                p = random_part_perm(rng, n, parts)
                outsiders += p not in elements
                assert (p in group) == (p in elements)
        assert outsiders > 100


class TestDegreeCap:
    # A chain composes through bytes.translate, whose tables hold 256
    # entries.
    def test_chain_on_256_points(self):
        cycle = Permutation(list(range(1, 256)) + [0])
        chain = StabilizerChain([cycle], 256)
        assert chain.order() == 256
        assert chain.contains(cycle**7)
        assert not chain.contains(parse_perm("(1,2)", 256))

    def test_257_points_rejected(self):
        with pytest.raises(PermError, match="at most 256 points"):
            StabilizerChain([Permutation(list(range(1, 257)) + [0])], 257)


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

    def test_one_chain_answers_many_subgroups(self):
        # One chain is asked about every subgroup generated by one or two
        # elements of a shared pool, in a random order, so later queries
        # walk moves that earlier ones recorded in the chain's memo.
        rng = random.Random(41)
        sizes = set()
        for _ in range(10):
            n = rng.randint(5, 7)
            pool = [random_perm(rng, n) for _ in range(4)]
            g_gens = rng.sample(pool, rng.randint(1, 2))
            g_elements = brute_force_elements(g_gens, n)
            chain = StabilizerChain(g_gens, n)
            queries = [[a] for a in pool] + [
                [pool[i], pool[j]] for i in range(4) for j in range(4) if i != j
            ]
            rng.shuffle(queries)
            for s_gens in queries:
                s_elements = brute_force_elements(s_gens, n)
                orbit = chain.coset_orbit_size(s_gens)
                assert orbit == len(s_elements) // len(s_elements & g_elements)
                sizes.add(orbit)
        assert len(sizes) > 10

    def test_one_chain_answers_many_subgroups_up_to_degree_12(self):
        # As above, on pools of non-involutions that fix every part of a
        # shuffled partition of 8 to 12 points.
        rng = random.Random(45)
        sizes = set()
        for _ in range(4):
            n, parts = random_parts(rng)
            pool = [random_part_perm(rng, n, parts) for _ in range(3)]
            g_gens = rng.sample(pool, rng.randint(1, 2))
            g_elements = brute_force_elements(g_gens, n)
            chain = StabilizerChain(g_gens, n)
            queries = [[a] for a in pool] + [
                [pool[i], pool[j]] for i in range(3) for j in range(3) if i != j
            ]
            rng.shuffle(queries)
            for s_gens in queries:
                s_elements = brute_force_elements(s_gens, n)
                orbit = chain.coset_orbit_size(s_gens)
                assert orbit == len(s_elements) // len(s_elements & g_elements)
                sizes.add(orbit)
        assert len(sizes) > 5

    def test_pools_mixing_involutions(self):
        # Involutions record each move both ways; a non-involution must not.
        # One chain is asked about subgroups of a pool of both kinds in a
        # random order, so later queries read moves that earlier ones
        # recorded, reverse moves among them.
        rng = random.Random(43)
        for _ in range(12):
            n = rng.randint(5, 7)
            pool = [random_involution(rng, n) for _ in range(3)]
            pool += [random_perm(rng, n) for _ in range(3)]
            g_gens = rng.sample(pool, 2)
            g_elements = brute_force_elements(g_gens, n)
            chain = StabilizerChain(g_gens, n)
            queries = [[a] for a in pool] + [
                [pool[i], pool[j]] for i in range(6) for j in range(6) if i != j
            ]
            rng.shuffle(queries)
            for s_gens in queries:
                s_elements = brute_force_elements(s_gens, n)
                orbit = chain.coset_orbit_size(s_gens)
                assert orbit == len(s_elements) // len(s_elements & g_elements)

    def test_bounded_query_leaves_memo_exact(self):
        # A query stopped at its bound leaves its search part done; the moves
        # it recorded must still give exact orbits to unbounded queries.
        rng = random.Random(47)
        stopped = 0
        for _ in range(20):
            n = rng.randint(5, 7)
            pool = [random_involution(rng, n) for _ in range(2)]
            pool += [random_perm(rng, n) for _ in range(2)]
            g_elements = brute_force_elements(pool[3:], n)
            chain = StabilizerChain(pool[3:], n)

            def orbit_of(s_gens):
                s_elements = brute_force_elements(s_gens, n)
                return len(s_elements) // len(s_elements & g_elements)

            first = pool[:3]
            if orbit_of(first) > 2:
                assert chain.coset_orbit_size(first, 2) == 2
                stopped += 1
            assert chain.coset_orbit_size(first, 1) == 1
            for s_gens in [first, pool, pool[:2], pool[2:]]:
                assert chain.coset_orbit_size(s_gens) == orbit_of(s_gens)
        assert stopped > 10

    def test_subgroup_fixes_its_coset(self):
        chain = StabilizerChain([parse_perm("(1,2,3,4,5)", 5),
                                 parse_perm("(1,2)", 5)], 5)
        assert chain.coset_orbit_size([parse_perm("(2,4)(3,5)", 5)]) == 1

    def test_bounded_and_unbounded_orbits_agree(self):
        # For S and G drawn from a shared pool and every subgroup T of
        # S meet G generated by one or two elements of a sample of it, the
        # orbit size divides |S| / |T|, and a query with that bound gives
        # the unbounded size: on a fresh chain, and on one chain that every
        # query shares, bounded and unbounded queries in turn.  Every coset
        # is named by degree-length bytes.
        rng = random.Random(53)
        stopped = short = 0
        for _ in range(24):
            n = rng.randint(4, 7)
            pool = [random_perm(rng, n) for _ in range(4)]
            s_gens, g_gens = rng.sample(pool, 2), rng.sample(pool, 2)
            s_elements = brute_force_elements(s_gens, n)
            meet = s_elements & brute_force_elements(g_gens, n)
            orbit = len(s_elements) // len(meet)
            shared = StabilizerChain(g_gens, n)
            sample = rng.sample(sorted(meet), min(4, len(meet)))
            for t_gens in [[t] for t in sample] + list(
                    itertools.combinations(sample, 2)):
                bound = len(s_elements) // len(
                    brute_force_elements(t_gens, n))
                assert bound % orbit == 0
                fresh = StabilizerChain(g_gens, n)
                assert fresh.coset_orbit_size(s_gens, bound) == orbit
                assert shared.coset_orbit_size(s_gens, bound) == orbit
                assert shared.coset_orbit_size(s_gens) == orbit
                stopped += 1 < orbit == bound
                short += orbit < bound
                names = [*fresh._reps, *shared._reps, *shared._rep_number]
                assert {len(rep) for rep in names} == {n}
        assert stopped > 30 and short > 60

    @pytest.mark.parametrize("bound", [2, 7, 8, 9, 12, 15, 25, 49])
    def test_lagrange_stop_names_just_over_bound_over_p(self, bound):
        # S cyclic of order bound meets G trivially, so all bound cosets
        # are in the orbit; a query bounded by bound stops at the first
        # coset past bound / p, p the least prime factor of bound, having
        # named bound / p + 1 cosets.
        cycle = Permutation(list(range(1, bound)) + [0, bound, bound + 1])
        chain = StabilizerChain([parse_perm(f"({bound + 1},{bound + 2})",
                                            bound + 2)], bound + 2)
        assert chain.coset_orbit_size([cycle], bound) == bound
        p = next(p for p in range(2, bound + 1) if bound % p == 0)
        assert len(chain._reps) == bound // p + 1
        assert chain.coset_orbit_size([cycle]) == bound
        assert len(chain._reps) == bound


class TestChainExtension:
    def test_extended_chain_matches_chain_from_scratch(self):
        # <H, g...> by extending H's chain, against a chain of all the
        # generators at once and against closure: order, membership of
        # random permutations and coset orbits of random subgroups.
        rng = random.Random(61)
        for _ in range(25):
            n = rng.randint(4, 7)
            pool = [random_perm(rng, n) for _ in range(rng.randint(2, 4))]
            cut = rng.randint(0, len(pool) - 1)
            base = StabilizerChain(pool[:cut], n)
            extended = StabilizerChain(pool[cut:], n, extends=base)
            scratch = StabilizerChain(pool, n)
            elements = brute_force_elements(pool, n)
            assert extended.order() == scratch.order() == len(elements)
            assert extended.order() == brute_force_order(pool, n)
            for _ in range(30):
                p = random_perm(rng, n)
                assert extended.contains(p) == scratch.contains(p) == (
                    p in elements)
            for _ in range(4):
                s_gens = [random_perm(rng, n) for _ in range(rng.randint(1, 2))]
                s_elements = brute_force_elements(s_gens, n)
                orbit = len(s_elements) // len(s_elements & elements)
                assert extended.coset_orbit_size(s_gens) == orbit
                assert scratch.coset_orbit_size(s_gens) == orbit

    def test_extended_chain_up_to_degree_12(self):
        # As above, on non-involutions that fix every part of a shuffled
        # partition of 8 to 12 points.
        rng = random.Random(63)
        for _ in range(6):
            n, parts = random_parts(rng)
            pool = [random_part_perm(rng, n, parts)
                    for _ in range(rng.randint(2, 4))]
            cut = rng.randint(1, len(pool) - 1)
            base = StabilizerChain(pool[:cut], n)
            extended = StabilizerChain(pool[cut:], n, extends=base)
            scratch = StabilizerChain(pool, n)
            elements = brute_force_elements(pool, n)
            assert extended.order() == scratch.order() == len(elements)
            for _ in range(30):
                p = random_part_perm(rng, n, parts)
                assert extended.contains(p) == scratch.contains(p) == (
                    p in elements)
            s_gens = [random_part_perm(rng, n, parts)]
            s_elements = brute_force_elements(s_gens, n)
            orbit = len(s_elements) // len(s_elements & elements)
            assert extended.coset_orbit_size(s_gens) == orbit
            assert scratch.coset_orbit_size(s_gens) == orbit

    def test_extension_shares_generator_tables(self):
        # Each generator's translate tables are built once and read by
        # every chain that extends the chain that built them.
        rng = random.Random(65)
        n, parts = random_parts(rng)
        pool = [random_part_perm(rng, n, parts) for _ in range(3)]
        base = StabilizerChain(pool[:2], n)
        tables = {g.images: base._table(g) for g in pool[:2]}
        extended = StabilizerChain(pool[2:], n, extends=base)
        again = StabilizerChain([], n, extends=extended)
        for g in pool[:2]:
            assert extended._table(g) is tables[g.images]
            assert again._table(g) is tables[g.images]
        assert again._table(pool[2]) is extended._table(pool[2])

    def test_extension_of_an_extension(self):
        # Generators added one at a time, as SubsetLattice adds them; the
        # chain of <(1,2), ..., (k-1,k)> is Sym(k) on the first k of 8 points.
        gens = [parse_perm(f"({i},{i + 1})", 8) for i in range(1, 7)]
        chain = StabilizerChain(gens[:1], 8)
        for k, g in enumerate(gens[1:], start=3):
            chain = StabilizerChain([g], 8, extends=chain)
            assert chain.order() == math.factorial(k)
            assert chain.contains(parse_perm(f"(1,{k})", 8))
            assert not chain.contains(parse_perm(f"(1,{k + 1})", 8))
        assert StabilizerChain([], 8, extends=chain).order() == 5040
        assert StabilizerChain(gens[:2], 8, extends=chain).order() == 5040

    def test_extended_chain_is_left_unchanged(self):
        rng = random.Random(67)
        for _ in range(15):
            n = rng.randint(5, 8)
            base_gens = [random_perm(rng, n) for _ in range(2)]
            base = StabilizerChain(base_gens, n)
            queries = [[random_perm(rng, n)] for _ in range(4)]
            before = [base.coset_orbit_size(q) for q in queries]
            order = base.order()
            level_tables = [list(lvl.tables) for lvl in base.levels]
            transversals = [dict(lvl.transversal) for lvl in base.levels]
            reps = list(base._reps)
            extended = StabilizerChain([random_perm(rng, n)], n, extends=base)
            extended.coset_orbit_size(queries[0])
            assert base.order() == order
            assert [lvl.tables for lvl in base.levels] == level_tables
            assert [lvl.transversal for lvl in base.levels] == transversals
            assert base._reps == reps
            assert [base.coset_orbit_size(q) for q in queries] == before
            assert base.order() == brute_force_order(base_gens, n)
