"""Signatures, verification reports and the exhaustive search."""

import gc
import hashlib
import json
import pickle
import random
import time
from itertools import permutations

import pytest

from stringc.ambients import AMBIENT_ORDERS, ambient_names, named_ambient
from stringc.classify import (
    _AmbientModel,
    _dedup,
    _orbit_keys,
    _raw_search,
    _SubgroupLattice,
    brute_force_search,
    catalog_instances,
    catalog_skips,
    exhaustive_search,
    reports_to_json,
    signature,
    VerificationReport,
    verify_catalog,
    verify_instance,
)
from stringc.families import family_catalog
from stringc.perms import (
    PermGroup,
    StabilizerChain,
    brute_force_elements,
    parse_perm,
)
from stringc.prgraph import involution_key, orbit_count
from stringc.sggi import Sggi, dual


def simplex(n):
    return Sggi([parse_perm(f"({i},{i + 1})", n) for i in range(1, n)])


def commuting_involution_pairs(degree):
    """Ordered pairs of distinct commuting involutions of Sym(degree), as
    image tuples."""
    invs = [p for p in permutations(range(degree))
            if p != tuple(range(degree)) and all(p[p[i]] == i for i in p)]
    return [(a, b) for a in invs for b in invs if a != b
            and all(a[b[i]] == b[a[i]] for i in range(degree))]


def conjugation_orbit_count(pairs, degree):
    """Orbits on the pairs of Sym(degree) acting by conjugation, with a
    pair and its reversal in one orbit."""
    remaining = set(pairs)
    orbits = 0
    while remaining:
        a, b = remaining.pop()
        orbits += 1
        for p in permutations(range(degree)):
            # p a p^-1 sends p[i] to p[a[i]].
            ca, cb = [0] * degree, [0] * degree
            for i in range(degree):
                ca[p[i]], cb[p[i]] = p[a[i]], p[b[i]]
            remaining.discard((tuple(ca), tuple(cb)))
            remaining.discard((tuple(cb), tuple(ca)))
    return orbits


class TestSignature:
    def test_simplex_values(self):
        sig = signature(simplex(5))
        assert (sig.degree, sig.rank, sig.order) == (5, 4, 120)
        assert sig.schlafli == (3, 3, 3)

    def test_conjugation_invariance(self):
        s = simplex(5)
        conj = parse_perm("(1,5)", 5)
        moved = Sggi([conj.inverse() * g * conj for g in s.gens])
        assert signature(moved) == signature(s)

    def test_dual_signature_differs_when_not_palindromic(self):
        s = Sggi([
            parse_perm("(2,3)", 7),
            parse_perm("(1,2)(3,4)", 7),
            parse_perm("(4,5)", 7),
            parse_perm("(5,6)", 7),
            parse_perm("(6,7)", 7),
        ])
        assert signature(s).schlafli == (4, 6, 3, 3)
        assert signature(dual(s)).schlafli == (3, 3, 6, 4)


class TestCatalogInstances:
    def test_counts_at_14(self):
        from collections import Counter

        counts = Counter(fid.split("#")[0] for fid, _ in catalog_instances(14))
        assert counts == {
            "T4": 12, "T5": 4, "T6": 20, "T7": 8, "T8": 9,
            "P61": 2, "HIGHC": 2, "REP2N": 2,
        }

    def test_parity_skips_at_16(self):
        ids = {fid for fid, _ in catalog_instances(16)}
        assert not any(fid.startswith("T4") for fid in ids)
        assert not any(fid.startswith("T7") for fid in ids)
        assert "T6#17" in ids and "T8#1" in ids

    def test_rep2n_param_mapping(self):
        params = [p for fid, p in catalog_instances(14) if fid == "REP2N#1"]
        assert params == [{"n": 7}]

    @pytest.mark.parametrize("n, skipped", [
        (5, {"HIGHC#2", "REP2N#1", "REP2N#2"}),
        (15, {"REP2N#1", "REP2N#2"}),
        (16, set()),
    ])
    def test_every_family_is_listed_or_skipped(self, n, skipped):
        # Each family has instances on n points or one skip with a reason,
        # and the skips come in catalog order.
        listed = {fid for fid, _ in catalog_instances(n)}
        skips = catalog_skips(n)
        ids = [d.id for d in family_catalog()]
        assert [fid for fid, _ in skips] == [
            fid for fid in ids if fid not in listed]
        assert all(reason for _, reason in skips)
        tables = {fid for fid in ids if fid.split("#")[0] in (
            "T4", "T5", "T6", "T7", "T8", "P61")}
        assert {fid for fid, _ in skips} - tables == skipped


class TestVerifyInstance:
    def test_p61_report(self):
        rep = verify_instance("P61#1", {"n": 14})
        assert rep.passed
        assert rep.order == 10080
        assert rep.schlafli == (2, 3, 3, 3, 3, 3)

    def test_rep2n_small(self):
        rep = verify_instance("REP2N#2", {"n": 7})
        assert rep.passed and rep.order == 5040
        assert rep.schlafli[:2] == (4, 6)

    def test_t4_rank8_passes(self):
        rep = verify_instance("T4#2", {"n": 14})
        assert rep.passed
        assert rep.checks["rank"]["evidence"]["rank"] == 8

    def test_t6_delta_checks_present(self):
        rep = verify_instance("T6#19", {"n": 14, "i": 2})
        assert rep.passed
        assert rep.checks["unique_u_delta"]["status"] == "pass"
        assert rep.checks["rho0_vector"]["evidence"]["rho0"] == "R1"

    def test_t7_delta_window(self):
        rep = verify_instance("T7#26", {"n": 14, "x": 4})
        assert rep.passed
        assert rep.checks["delta_window"]["evidence"]["nontrivial"] == [4, 5]

    def test_json_schema(self):
        rep = verify_instance("T8#2", {"n": 14})
        payload = json.loads(reports_to_json([rep], no_timing=True))
        entry = payload[0]
        assert set(entry) == {
            "instance", "params", "checks", "schlafli", "order", "status",
        }
        assert all(
            set(c) == {"status", "evidence"} for c in entry["checks"].values()
        )

    def test_editing_checks_leaves_the_report(self):
        # checks is built afresh from the recorded (status, evidence) pairs
        # on each read, so a caller's edits do not reach the report.
        rep = VerificationReport(instance="T8#5", params={"n": 14})
        rep.record("rank", "pass", rank=7)
        rep.record("intersection_property", "fail", witness=[[0, 1], [1, 2]])
        before = rep.to_dict(no_timing=True)
        checks = rep.checks
        checks["intersection_property"]["status"] = "pass"
        checks["rank"]["evidence"]["rank"] = 8
        checks["naive_oracle"] = {"status": "skip", "evidence": {}}
        assert rep.to_dict(no_timing=True) == before
        assert rep.status == "FAIL" and not rep.passed
        del rep.checks["intersection_property"]
        assert rep.checks == before["checks"]

    def test_report_survives_pickling(self):
        # A worker process's report reaches the parent by pickle.
        rep = verify_instance("T7#27", {"n": 14, "x": 1})
        copy = pickle.loads(pickle.dumps(rep))
        assert copy.to_dict() == rep.to_dict() and copy.status == "PASS"

    def test_m2_table_defects_reported(self):
        # The tabulated constructions T8#5, T8#6, T8#7 are not string
        # C-groups; the harness must surface that honestly.
        rep5 = verify_instance("T8#5", {"n": 14})
        assert not rep5.passed
        assert rep5.checks["intersection_property"]["status"] == "fail"
        assert rep5.checks["intersection_property"]["evidence"]["witness"] == [
            [0, 1, 2], [1, 2, 3],
        ]
        rep6 = verify_instance("T8#6", {"n": 14})
        assert rep6.checks["independent"]["status"] == "fail"
        rep7 = verify_instance("T8#7", {"n": 14})
        assert rep7.checks["intersection_property"]["evidence"]["witness"] == [
            [1, 2, 3], [2, 3, 4],
        ]
        # The naive oracle's first failing pair in increasing-bitmask order.
        naive = [rep.checks["naive_oracle"] for rep in (rep5, rep6, rep7)]
        assert [check["status"] for check in naive] == ["fail"] * 3
        assert [check["evidence"]["witness"] for check in naive] == [
            [[0, 1], [1, 2, 3]], [[0], [2, 3, 4]], [[0, 1], [3, 4]],
        ]

    def test_group_chains_come_from_the_lattice(self, monkeypatch):
        # The group and g0 take their chains from the subset lattice, which
        # extends them one generator at a time; only the lattice's chains of
        # single generators are built from scratch on the instance's points.
        scratch = []
        init = StabilizerChain.__init__

        def counting_init(self, generators, degree, extends=None):
            generators = list(generators)
            if extends is None and degree == 14 and len(generators) > 1:
                scratch.append(len(generators))
            init(self, generators, degree, extends)

        monkeypatch.setattr(StabilizerChain, "__init__", counting_init)
        rep = verify_instance("T7#27", {"n": 14, "x": 1})
        assert rep.passed and "kernel_g0" in rep.checks
        assert scratch == []


    def test_skipped_ip_is_undecided(self, monkeypatch):
        monkeypatch.setattr("stringc.sggi._ORBIT_CAP", 0)
        rep = verify_instance("P61#2", {"n": 14})
        assert rep.checks["intersection_property"]["status"] == "skip"
        assert "cap of 0" in rep.checks["intersection_property"]["evidence"][
            "reason"]
        assert rep.passed  # nothing failed
        assert rep.status == "UNDECIDED"
        assert rep.to_dict()["status"] == "UNDECIDED"

    def test_t8_4_at_16_decides_ip(self):
        rep = verify_instance("T8#4", {"n": 16, "i": 4})
        assert rep.checks["intersection_property"]["status"] == "pass"
        assert rep.status == "PASS"


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps inline."""

    def __init__(self, seen):
        self.seen = seen

    def __call__(self, max_workers):
        self.seen.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestWorkerClamp:
    @pytest.fixture
    def pools(self, monkeypatch):
        seen = []
        # _map imports the pool from concurrent.futures when it needs one.
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            _RecordingPool(seen))
        return seen

    def test_verify_catalog(self, pools, monkeypatch):
        monkeypatch.setattr("stringc.classify.os.cpu_count", lambda: 64)
        ids = {"REP2N#1", "REP2N#2"}
        reports = verify_catalog(14, ids=ids, jobs=1000)
        assert pools == [2]  # two work items
        monkeypatch.setattr("stringc.classify.os.cpu_count", lambda: 1)
        assert [r.to_dict(no_timing=True) for r in reports] == [
            r.to_dict(no_timing=True)
            for r in verify_catalog(14, ids=ids, jobs=1000)
        ]
        assert pools == [2]  # one CPU: no pool at all

    def test_exhaustive_search(self, pools, monkeypatch):
        ambient = named_ambient("sym4-deg4")  # nine involutions
        monkeypatch.setattr("stringc.classify.os.cpu_count", lambda: 3)
        capped = exhaustive_search(ambient, 2, 3, jobs=1000)
        monkeypatch.setattr("stringc.classify.os.cpu_count", lambda: 64)
        exhaustive_search(ambient, 2, 3, jobs=1000)
        exhaustive_search(ambient, 2, 3, jobs=-5)
        assert pools == [3, 9]
        serial = exhaustive_search(ambient, 2, 3)
        assert [sig.key() for _, sig in capped.items] == [
            sig.key() for _, sig in serial.items
        ]


class TestSearch:
    def test_toy_completeness_vs_brute_force(self):
        ambient = named_ambient("sym4-deg4")
        pruned = exhaustive_search(ambient, 2, 3)
        brute = brute_force_search(ambient, 2, 3)
        assert [sig.key() for _, sig in pruned.items] == [
            sig.key() for _, sig in brute.items
        ]
        assert pruned.schlafli_set() == [(3, 3), (3, 4)]

    def test_determinism(self):
        ambient = named_ambient("alt5-deg6")
        first = exhaustive_search(ambient, 3, 5)
        second = exhaustive_search(ambient, 3, 5)
        assert [
            [g.images for g in s.gens] for s, _ in first.items
        ] == [[g.images for g in s.gens] for s, _ in second.items]

    def test_parallel_matches_serial(self):
        ambient = named_ambient("alt5-deg6")
        serial = exhaustive_search(ambient, 3, 5)
        parallel = exhaustive_search(ambient, 3, 5, jobs=2)
        assert [
            [g.images for g in s.gens] for s, _ in serial.items
        ] == [[g.images for g in s.gens] for s, _ in parallel.items]

    def test_min_rank_validation(self):
        with pytest.raises(ValueError):
            exhaustive_search(named_ambient("sym4-deg4"), 1, 3)

    def test_subgroup_order_must_divide(self):
        with pytest.raises(ValueError):
            exhaustive_search(named_ambient("sym4-deg4"), 2, 3, subgroup_order=7)

    def test_rank_range_and_order_validation(self):
        ambient = named_ambient("sym4-deg4")
        with pytest.raises(ValueError, match="below min_rank"):
            exhaustive_search(ambient, 3, 2)
        with pytest.raises(ValueError, match="at least 1"):
            exhaustive_search(ambient, 2, 3, subgroup_order=0)
        for budget in (float("nan"), 0, -1.0):
            with pytest.raises(ValueError, match="budget_sec must be positive"):
                exhaustive_search(ambient, 2, 3, budget_sec=budget)

    @pytest.mark.parametrize("name, min_rank, order, merged, classes", [
        ("alt5-deg6", 3, None, 178, 2),
        ("sym5-deg6", 3, None, 475, 5),
        ("c2wrS3-deg6", 4, None, 138, 6),
        ("s3wrS2-deg6", 4, 36, 35, 1),
    ])
    def test_raw_tuple_counts(self, name, min_rank, order, merged, classes):
        # Raw tuples = merged + classes: a pruning rule that loses tuples,
        # or lets extra ones through, changes these counts even when the
        # Schlafli sets stay the same.
        outcome = exhaustive_search(named_ambient(name), min_rank, 5,
                                    subgroup_order=order,
                                    transitive_only=order is not None)
        assert outcome.completed
        assert (outcome.merged_duplicates, len(outcome.items)) == (
            merged, classes)

    @pytest.mark.parametrize("name, order, merged, classes, unfiltered", [
        ("s3wrS2-deg6", 36, 106, 2, 4),
        ("sym4-deg4", 4, 2, 1, 3),
    ])
    def test_transitive_only_keeps_the_transitive_items(
            self, name, order, merged, classes, unfiltered):
        ambient = named_ambient(name)
        kept = exhaustive_search(ambient, 2, 4, subgroup_order=order,
                                 transitive_only=True)
        every = exhaustive_search(ambient, 2, 4, subgroup_order=order)
        transitive = [(s, sig) for s, sig in every.items
                      if PermGroup(list(s.gens), s.degree).is_transitive()]
        assert len(every.items) == unfiltered
        assert (kept.merged_duplicates, len(kept.items)) == (merged, classes)
        assert [([g.images for g in s.gens], sig) for s, sig in kept.items] == [
            ([g.images for g in s.gens], sig) for s, sig in transitive]

    def test_budget_flag(self):
        outcome = exhaustive_search(
            named_ambient("sym5-deg6"), 3, 5, budget_sec=0.001
        )
        assert not outcome.completed

    def test_results_pass_naive_oracle(self):
        from stringc.sggi import check_intersection_property

        outcome = exhaustive_search(named_ambient("alt5-deg6"), 3, 5)
        for s, _ in outcome.items:
            assert check_intersection_property(s, "naive").passed

    def test_ambient_over_table_limit_rejected(self):
        sym7 = PermGroup(
            [parse_perm("(1,2)", 7), parse_perm("(1,2,3,4,5,6,7)", 7)]
        )
        assert sym7.order() == 5040
        started = time.perf_counter()
        with pytest.raises(ValueError, match="order 5040"):
            exhaustive_search(sym7, 2, 3)
        assert time.perf_counter() - started < 5

    @pytest.mark.parametrize("name, order", [
        ("c2wrS3-deg6", 24), ("s3wrS2-deg6", 36),
    ])
    def test_index2_rule_vs_brute_force(self, name, order):
        # G/Phi has order at least 4 on both ambients, so the index-2 rule
        # prunes past depth 0.
        ambient = named_ambient(name)
        pruned = exhaustive_search(ambient, 2, 3, subgroup_order=order)
        brute = brute_force_search(ambient, 2, 3, subgroup_order=order)
        assert pruned.items
        assert [sig.key() for _, sig in pruned.items] == [
            sig.key() for _, sig in brute.items
        ]

    def test_index2_rule_many_hyperplanes(self):
        # C2^5 has 31 index-2 subgroups: the rule must not list them.
        c2_5 = PermGroup([parse_perm(f"({i},{i + 1})", 10)
                          for i in range(1, 10, 2)])
        started = time.perf_counter()
        outcome = exhaustive_search(c2_5, 2, 3, subgroup_order=16)
        assert outcome.completed and outcome.items == []
        assert time.perf_counter() - started < 5

    def test_index2_row_parallel_matches_serial(self):
        ambient = named_ambient("s3wrS2-deg6")
        serial, parallel = (
            exhaustive_search(ambient, 4, 5, subgroup_order=36,
                              transitive_only=True, jobs=jobs)
            for jobs in (1, 2)
        )
        assert serial.schlafli_set() == [(3, 2, 3)]
        assert [
            [g.images for g in s.gens] for s, _ in serial.items
        ] == [[g.images for g in s.gens] for s, _ in parallel.items]


class TestRawSearch:
    @pytest.mark.parametrize("name, rank, count, digest", [
        ("sym6-deg10", 5, 720,
         "a6bc6e1b01542d0153dd7b04abac3bd9c2a346f01c4b30242585089fbef5c7de"),
        ("c2wrS4-deg8", 4, 3072,
         "e3c2e5dd3182b3ef26b897162aafd1eafcb401e76401cfabed0f9cebe936385f"),
    ], ids=["sym6-deg10", "c2wrS4-deg8"])
    def test_raw_tuples_and_order(self, name, rank, count, digest):
        # Digests of the repr of the accepted tuples in DFS order, taken
        # from the search that closed every interval from the identity: a
        # lattice that finds other tuples, or visits them in another order,
        # fails here.
        model = _AmbientModel(named_ambient(name))
        everywhere = range(len(model.involution_indices()))
        found, completed = _raw_search(model, rank, rank, model.order, None,
                                       everywhere)
        assert completed and len(found) == count
        assert hashlib.sha256(repr(found).encode()).hexdigest() == digest

    def test_two_jobs_match_one(self):
        ambient = named_ambient("c2wrS4-deg8")
        serial, parallel = (exhaustive_search(ambient, 4, 4, jobs=jobs)
                            for jobs in (1, 2))
        assert (serial.merged_duplicates, len(serial.items)) == (3056, 16)
        assert parallel.merged_duplicates == serial.merged_duplicates
        assert [([g.images for g in s.gens], sig)
                for s, sig in serial.items] == [
            ([g.images for g in s.gens], sig) for s, sig in parallel.items]

    def test_search_leaves_no_cyclic_garbage(self):
        ambient = named_ambient("sym5-deg6")
        gc.collect()
        gc.disable()
        try:
            exhaustive_search(ambient, 3, 5)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestAmbientModel:
    @pytest.mark.parametrize("name", [
        name for name in ambient_names() if AMBIENT_ORDERS[name] <= 720])
    def test_table_matches_permutation_products(self, name):
        model = _AmbientModel(named_ambient(name))
        index = {g.images: i for i, g in enumerate(model.elements)}
        assert model.order == AMBIENT_ORDERS[name]
        assert model._table == [
            [index[(a * b).images] for b in model.elements]
            for a in model.elements]

    def test_pickle_rebuilds_the_same_model(self):
        # Pool workers get the model by pickle, which rebuilds it from the
        # ambient's generators.
        model = _AmbientModel(named_ambient("c2wrS3-deg6"))
        data = pickle.dumps(model)
        assert len(data) < 1000
        copy = pickle.loads(data)
        assert copy.elements == model.elements
        assert copy._table == model._table
        assert copy.identity == model.identity


class TestSubgroupLattice:
    @pytest.mark.parametrize("name", ["sym5-deg6", "s3wrS2-deg6",
                                      "c2wrS4-deg8"])
    def test_coset_join_matches_closure(self, name):
        ambient = named_ambient(name)
        model = _AmbientModel(ambient)
        lattice = _SubgroupLattice(model)
        rng = random.Random(14)

        def closure(gens):
            return frozenset(
                model.index[g.images] for g in brute_force_elements(
                    [model.elements[i] for i in gens], ambient.degree))

        for _ in range(40):
            gens = rng.sample(range(model.order), rng.randint(0, 3))
            h = 0
            for g in gens:
                h = lattice.join(h, g)
            assert lattice.elements[h] == closure(gens)
            inside = rng.choice(sorted(lattice.elements[h]))
            assert lattice.join(h, inside) == h
            g = rng.randrange(model.order)
            k = lattice.join(h, g)
            assert lattice.elements[k] == closure(gens + [g])
            assert lattice.orders[k] == len(lattice.elements[k])
        # A subgroup reached along another path keeps its first number.
        numbers = {}
        for k, members in enumerate(lattice.elements):
            assert numbers.setdefault(members, k) == k


class TestDedup:
    @pytest.mark.parametrize("name, min_rank", [
        ("alt5-deg6", 3), ("sym5-deg6", 3), ("c2wrS3-deg6", 4),
    ])
    def test_stored_orientation_and_signature(self, name, min_rank):
        # The stored signature is the stored sggi's own, and its dual's is
        # never smaller.
        outcome = exhaustive_search(named_ambient(name), min_rank, 5)
        assert outcome.items
        for s, sig in outcome.items:
            assert sig == signature(s)
            assert signature(dual(s)).key() >= sig.key()

    def test_sym6_klein_pairs_match_conjugation_orbits(self):
        # Pairs such as [(5,6), (1,2)(3,4)] and [(5,6), (3,4)(5,6)] share
        # order, Schlafli symbol and cycle types but are not conjugate.
        sym6 = PermGroup([parse_perm("(1,2)", 6),
                          parse_perm("(1,2,3,4,5,6)", 6)])
        outcome = exhaustive_search(sym6, 2, 2, subgroup_order=4)
        expected = conjugation_orbit_count(commuting_involution_pairs(6), 6)
        assert expected == 9
        assert len(outcome.items) == expected

    @pytest.mark.parametrize("name, min_rank, max_rank, order, computed", [
        ("alt5-deg6", 3, 5, None, 3),
        ("sym5-deg6", 3, 5, None, 5),
        ("c2wrS3-deg6", 4, 5, None, 6),
        ("s3wrS2-deg6", 4, 5, 36, 2),
        ("c2wrS4-deg8", 4, 4, None, 16),
    ])
    def test_orbit_keys_are_exact(self, monkeypatch, name, min_rank,
                                  max_rank, order, computed):
        # Every raw tuple gets the key of its own images, one key computed
        # per orbit of the ambient; a walk that conjugates wrongly marks
        # tuples with another orbit's key, or reaches fewer of them.
        model = _AmbientModel(named_ambient(name))
        everywhere = range(len(model.involution_indices()))
        found, completed = _raw_search(model, min_rank, max_rank,
                                       order or model.order, None, everywhere)
        assert completed
        combos = sorted(map(tuple, found))
        expected = {c: involution_key([model.elements[e].images for e in c])
                    for c in combos}
        calls = []

        def counting_key(images):
            calls.append(images)
            return involution_key(images)

        monkeypatch.setattr("stringc.classify.involution_key", counting_key)
        assert _orbit_keys(model, combos) == expected
        assert len(calls) == computed
        transitive = {c: key if orbit_count(
            [model.elements[e].images for e in c]) == 1 else None
            for c, key in expected.items()}
        assert _orbit_keys(model, combos, transitive_only=True) == transitive

    def test_input_order_does_not_matter(self):
        raw = commuting_involution_pairs(5)
        items, merged = _dedup(raw)
        shuffled = raw[:]
        random.Random(7).shuffle(shuffled)
        again, merged_again = _dedup(shuffled)
        assert merged_again == merged == len(raw) - len(items)
        assert [([g.images for g in s.gens], sig) for s, sig in again] == [
            ([g.images for g in s.gens], sig) for s, sig in items
        ]
