"""Acceptance criteria, one test per criterion.

Every criterion prints a single pass/fail line.  Criterion 1 expects the
catalog to verify at n=14 except for exactly three rows: T8#5, T8#6 and
T8#7 transcribe constructions that fail the intersection property.  The
test re-derives each of their recorded witnesses with a breadth-first
closure kept in this file, independent of the stabilizer chains and the
subset lattice that the verifier uses.  The printed Table 8 figures are
not in the repository, so the transcription itself cannot yet be compared
with them.  All other criteria pass.
"""

import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from stringc.ambients import named_ambient
from stringc.analysis import (
    all_swap_permutation,
    block_action,
    block_lattice,
    block_path_order,
    classify_kernel,
    delta_vector,
    alpha_vector,
    table3_cell,
)
from stringc.classify import (
    brute_force_search,
    catalog_instances,
    exhaustive_search,
    verify_catalog,
)
from stringc.families import descriptor, instantiate_family
from stringc.perms import BlockSystem, PermGroup, Permutation
from stringc.prgraph import emit_dot, graph_to_sggi, parse_graph, sggi_to_graph
from stringc.sggi import (
    Sggi,
    SggiError,
    SubsetLattice,
    check_intersection_property,
    schlafli,
)

GOLDENS = Path(__file__).parent / "goldens"


def _line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    return ok


@pytest.fixture(scope="module")
def catalog_reports():
    started = time.perf_counter()
    reports = verify_catalog(14, jobs=max(1, os.cpu_count() or 1))
    elapsed = time.perf_counter() - started
    return reports, elapsed


def _table_reports(reports):
    return [
        r
        for r in reports
        if r.instance.split("#")[0] in ("T4", "T5", "T6", "T7", "T8")
    ]


# Table 8 rows whose transcribed constructions are not string C-groups,
# with the orders |<J>|, |<K>|, |<J> & <K>|, |<J & K>| that the closure
# below gives for the witness (J, K) the verifier records at n=14.
T8_DEFECTS = {
    "T8#5": ([0, 1, 2], [1, 2, 3], (72, 576, 36, 12)),
    "T8#6": ([0, 1, 2, 3], [1, 2, 3, 4], (1152, 28800, 1152, 64)),
    "T8#7": ([1, 2, 3], [2, 3, 4], (192, 720, 16, 8)),
}


def _closure(graph, labels):
    """All elements of <rho_i : i in labels> as image tuples, by BFS.

    rho_i swaps the ends of every i-edge of the graph.  Nothing here uses
    the group engine, so it checks the verifier rather than repeating it.
    """
    gens = []
    for label in labels:
        images = list(range(graph.vertices))
        for lbl, u, v in graph.edges:
            if lbl == label:
                images[u - 1], images[v - 1] = v - 1, u - 1
        gens.append(tuple(images))
    identity = tuple(range(graph.vertices))
    seen = {identity}
    frontier = [identity]
    while frontier:
        found = []
        for x in frontier:
            for g in gens:
                y = tuple(x[i] for i in g)
                if y not in seen:
                    seen.add(y)
                    found.append(y)
        frontier = found
    return seen


def _witness_orders(family_id, j, k):
    """|<J>|, |<K>|, |<J> & <K>|, |<J & K>| for a catalog row at n=14."""
    graph = instantiate_family(family_id, {"n": 14})
    group_j, group_k = _closure(graph, j), _closure(graph, k)
    common = sorted(set(j) & set(k))
    return (len(group_j), len(group_k), len(group_j & group_k),
            len(_closure(graph, common)))


class TestCriterion1:
    def test_catalog_verification_all_pass(self, catalog_reports):
        """Tables 4-8 at n=14 verify, except the refuted T8#5, T8#6, T8#7.

        Every intersection-property verdict must be decided, and each
        refuted row's recorded witness must be a violation by closure.
        """
        reports, elapsed = catalog_reports
        tables = _table_reports(reports)
        undecided = sorted(
            f"{r.instance}{r.params}" for r in tables
            if r.checks.get("intersection_property", {}).get("status")
            not in ("pass", "fail")
        )
        failing = {r.instance for r in tables if not r.passed}
        confirmed = []
        for rep in tables:
            if rep.instance not in T8_DEFECTS:
                continue
            ip = rep.checks.get("intersection_property", {})
            if ip.get("status") != "fail":
                continue
            j, k = ip["evidence"]["witness"]
            orders = _witness_orders(rep.instance, j, k)
            if (j, k, orders) == T8_DEFECTS[rep.instance] and (
                    orders[2] > orders[3]):
                confirmed.append(rep.instance)
        assert _line(
            1,
            not undecided
            and failing == set(T8_DEFECTS)
            and sorted(confirmed) == sorted(T8_DEFECTS)
            and elapsed < 120,
            f"{len(tables)} table instances, refuted {sorted(T8_DEFECTS)}, "
            f"witnesses confirmed by closure: {sorted(confirmed)}, "
            f"other failures: {sorted(failing - set(T8_DEFECTS)) or 'none'}, "
            f"undecided IP: {undecided or 'none'}, wall {elapsed:.1f}s",
        )

    def test_all_other_instances_pass_within_budget(self, catalog_reports):
        """The satisfiable part: 50 of 53 table instances verify, < 120 s."""
        reports, elapsed = catalog_reports
        unexpected = [
            f"{r.instance}{r.params}" for r in _table_reports(reports)
            if not r.passed and r.instance not in T8_DEFECTS
        ]
        assert unexpected == []
        assert elapsed < 120, f"verify --n 14 --all took {elapsed:.1f}s"
        for rep in _table_reports(reports):
            if rep.instance in T8_DEFECTS:
                continue
            rank_expected = 8 if rep.instance in (
                "T4#1", "T4#2", "T4#7", "T4#8") else 7
            assert rep.checks["rank"]["evidence"]["rank"] == rank_expected
            assert rep.checks["transitive"]["status"] == "pass"
            assert rep.checks["imprimitive"]["status"] == "pass"
            assert rep.checks["proper_subgroup"]["status"] == "pass"


class TestCriterion2:
    def test_p61_instances(self):
        """Both P61 instances: order 10080 = 2*7!, Schlafli {2,3,3,3,3,3}."""
        ok = True
        for fid in ("P61#1", "P61#2"):
            s = graph_to_sggi(instantiate_family(fid, {"n": 14}))
            group = PermGroup(list(s.gens), 14)
            ok = ok and group.order() == 2 * math.factorial(7)
            ok = ok and tuple(schlafli(s)) == (2, 3, 3, 3, 3, 3)
        assert _line(2, ok, "P61#1/P61#2 at n=14: order 10080, {2,3,3,3,3,3}")


class TestCriterion3:
    def test_rep2n_instances(self):
        """REP2N at n=7: orders 5040, transitive on 14, ranks 6 and 5."""
        s1 = graph_to_sggi(instantiate_family("REP2N#1", {"n": 7}))
        s2 = graph_to_sggi(instantiate_family("REP2N#2", {"n": 7}))
        g1 = PermGroup(list(s1.gens), 14)
        g2 = PermGroup(list(s2.gens), 14)
        ok = (
            g1.order() == g2.order() == 5040
            and g1.is_transitive()
            and g2.is_transitive()
            and (s1.rank, s2.rank) == (6, 5)
            and tuple(schlafli(s2))[:2] == (4, 6)
        )
        assert _line(
            3, ok,
            f"orders {g1.order()}/{g2.order()}, ranks {s1.rank}/{s2.rank}, "
            f"rank-5 Schlafli {schlafli(s2)}",
        )


class TestCriterion4:
    def test_table1_alt5_sym5(self):
        """Degree-6 primitive rows reproduced exactly, under 120 s."""
        started = time.perf_counter()
        alt5 = exhaustive_search(named_ambient("alt5-deg6"), 3, 5)
        sym5 = exhaustive_search(named_ambient("sym5-deg6"), 3, 5)
        elapsed = time.perf_counter() - started
        ok = (
            alt5.completed
            and sym5.completed
            and alt5.schlafli_set() == [(3, 5), (5, 5)]
            and sym5.schlafli_set()
            == [(3, 3, 3), (4, 5), (4, 6), (5, 6), (6, 6)]
            and elapsed < 120
        )
        assert _line(
            4, ok,
            f"Alt5 {alt5.schlafli_set()}, Sym5 {sym5.schlafli_set()}, "
            f"{elapsed:.1f}s",
        )

    def test_table1_stretch_sym6(self):
        """Sym6 on 10 points: exactly {3,3,3,3} at rank 5, under 120 s."""
        started = time.perf_counter()
        outcome = exhaustive_search(named_ambient("sym6-deg10"), 5, 5)
        elapsed = time.perf_counter() - started
        ok = (
            outcome.completed
            and outcome.schlafli_set() == [(3, 3, 3, 3)]
            and elapsed < 120
        )
        assert _line(
            "4-stretch", ok,
            f"Sym6-deg10 {outcome.schlafli_set()}, {elapsed:.1f}s",
        )


class TestCriterion5:
    def test_table2_degree8_row(self):
        """The order-576 group 2^4:S3:S3 with {3,4,4,3} at rank 5, < 300 s.

        An order-384 ambient cannot contain an order-576 subgroup
        (Lagrange), so the search runs in S4 wr S2 (order 1152) filtered to
        subgroup order 576, parallel to the degree-6 order-72/order-36
        pattern.
        """
        started = time.perf_counter()
        outcome = exhaustive_search(
            named_ambient("s4wrS2-deg8"), 5, 5,
            subgroup_order=576, transitive_only=True,
        )
        elapsed = time.perf_counter() - started
        orders = sorted({sig.order for _, sig in outcome.items})
        ok = (
            outcome.completed
            and (3, 4, 4, 3) in outcome.schlafli_set()
            and orders == [576]
            and elapsed < 300
        )
        assert _line(
            5, ok,
            f"degree-8 row: {outcome.schlafli_set()} orders {orders}, "
            f"{elapsed:.1f}s",
        )

    def test_table2_degree6_rows(self):
        order48 = exhaustive_search(named_ambient("c2wrS3-deg6"), 4, 5)
        order72 = exhaustive_search(
            named_ambient("s3wrS2-deg6"), 4, 5,
            subgroup_order=36, transitive_only=True,
        )
        # Printed rows {2,3,3} and {2,3,4} reproduced; the suite additionally
        # finds {2,4,3} (C2 x hemicube) and the S3xS3 row comes out as
        # {3,2,3} -- the printed {2,3,3} needs a central involution S3xS3
        # does not have (ledger).
        found48 = set(order48.schlafli_set())
        assert {(2, 3, 3), (2, 3, 4)} <= found48
        assert order72.schlafli_set() == [(3, 2, 3)]

    def test_order384_wreath_has_no_rank5_c_group(self):
        outcome = exhaustive_search(named_ambient("c2wrS4-deg8"), 5, 5)
        assert outcome.items == []


class TestCriterion6:
    def test_kernel_classification_k2(self):
        """Kernel class never OTHER; wreath index constrained; all-swap
        membership at index 2^(m-1); over all k=2 instances, n in {14,18}."""
        violations = []
        for n in (14, 18):
            m = n // 2
            columns = BlockSystem(n, [(j, j + m) for j in range(1, m + 1)])
            for fid, params in catalog_instances(n):
                if fid.split("#")[0] not in ("T4", "T5", "T6", "T7"):
                    continue
                s = graph_to_sggi(
                    instantiate_family(fid, params)
                )
                group = PermGroup(list(s.gens), n)
                res = block_action(SubsetLattice(s.gens),
                                   block_lattice(s, columns),
                                   (1 << s.rank) - 1)
                kclass = classify_kernel(res, m)
                wreath_order = (2**m) * res.image_order
                if wreath_order % group.order():
                    violations.append((fid, params, "index not integral"))
                    continue
                index = wreath_order // group.order()
                if kclass == "OTHER":
                    violations.append((fid, params, "kernel OTHER"))
                if index not in (1, 2, 2 ** (m - 1), 2**m):
                    violations.append((fid, params, f"index {index}"))
                if index == 2 ** (m - 1):
                    if all_swap_permutation(columns) not in group:
                        violations.append((fid, params, "all-swap missing"))
        assert _line(6, not violations, f"violations: {violations or 'none'}")


class TestCriterion7:
    def test_delta_calculus(self):
        """T7: exactly {delta_x, delta_x+1} nontrivial, all named forms in
        the possibilities table; T6: exactly one U and rho_0 as classified."""
        columns = BlockSystem(14, [(j, j + 7) for j in range(1, 8)])
        violations = []
        for fid, params in catalog_instances(14):
            table = fid.split("#")[0]
            if table not in ("T6", "T7"):
                continue
            s = graph_to_sggi(instantiate_family(fid, params))
            path = block_path_order(s, columns)
            deltas = {i: delta_vector(s, i, path) for i in range(1, s.rank - 1)}
            alphas = {i: alpha_vector(s, i, path) for i in range(1, s.rank)}
            for i, vec in deltas.items():
                cell = table3_cell(s.rank, i, alphas[i].form, alphas[i + 1].form)
                if cell != vec.form:
                    violations.append((fid, params, i, "table mismatch"))
                if vec.weight() % 2 and vec.form != ("U", None):
                    violations.append((fid, params, i, "odd delta"))
            nontrivial = sorted(
                i for i, v in deltas.items() if v.form != ("O", None)
            )
            if table == "T7":
                x = params["x"]
                if nontrivial != [x, x + 1]:
                    violations.append((fid, params, "window", nontrivial))
            else:
                u_at = [i for i, v in deltas.items() if v.form == ("U", None)]
                if len(u_at) != 1 or nontrivial != u_at:
                    violations.append((fid, params, "U count", u_at))
                from stringc.classify import kernel_vector_of_rho0

                rho0 = kernel_vector_of_rho0(s, path)
                expected = descriptor(fid).expected["rho0"]
                if rho0 != expected:
                    violations.append((fid, params, "rho0", rho0))
        assert _line(7, not violations, f"violations: {violations or 'none'}")


class TestCriterion8:
    def test_oracle_equivalence_random(self):
        """Naive and recursive checks agree on 200 random sggis."""
        rng = random.Random(20260809)
        disagreements = 0
        produced = 0
        while produced < 200:
            degree = rng.randint(4, 12)
            rank = rng.randint(2, 5)
            gens = []
            for _ in range(rank):
                pts = list(range(1, degree + 1))
                rng.shuffle(pts)
                k = rng.randint(1, degree // 2)
                gens.append(
                    Permutation.from_cycles(
                        [[pts[2 * t], pts[2 * t + 1]] for t in range(k)], degree
                    )
                )
            try:
                s = Sggi(gens)
            except SggiError:
                continue
            produced += 1
            naive = check_intersection_property(s, "naive")
            recursive = check_intersection_property(s, "recursive")
            if naive.passed != recursive.passed:
                disagreements += 1
        assert _line(
            8, disagreements == 0,
            f"200 random sggis, {disagreements} disagreements",
        )

    def test_oracle_equivalence_catalog(self, catalog_reports):
        """Both modes agree wherever both ran on catalog instances."""
        reports, _ = catalog_reports
        for rep in reports:
            oracle = rep.checks.get("naive_oracle")
            if oracle and oracle["status"] != "skip":
                assert oracle["evidence"]["modes_agree"], rep.instance

    def test_every_verdict_decided_catalog(self, catalog_reports):
        """No n=14 report is UNDECIDED, HIGHC#1's IP included; the naive
        oracle refutes T8#5 and T8#7 with witnesses confirmed by closure."""
        reports, _ = catalog_reports
        by_id = {r.instance: r for r in reports}
        assert [r.instance for r in reports if r.status == "UNDECIDED"] == []
        assert by_id["HIGHC#1"].checks["intersection_property"]["status"] == (
            "pass")
        for fid in ("T8#5", "T8#7"):
            oracle = by_id[fid].checks["naive_oracle"]
            assert oracle["status"] == "fail", fid
            assert oracle["evidence"]["naive"] is False
            assert oracle["evidence"]["modes_agree"]
            orders = _witness_orders(fid, *oracle["evidence"]["witness"])
            assert orders[2] > orders[3], (fid, orders)


    def test_ip_verdicts_match_goldens(self, catalog_reports):
        """Each n=14 instance's intersection_property and naive_oracle
        checks, as verify --no-timing reports them, equal the goldens."""
        reports, _ = catalog_reports
        verdicts = []
        for rep in reports:
            checks = rep.to_dict(no_timing=True)["checks"]
            verdicts.append({
                "instance": rep.instance,
                "params": rep.params,
                "intersection_property": checks["intersection_property"],
                "naive_oracle": checks.get("naive_oracle"),
            })
        golden = (GOLDENS / "ip_verdicts_n14.json").read_text()
        assert json.loads(json.dumps(verdicts)) == json.loads(golden)

    def test_reports_match_golden(self, catalog_reports):
        """Every n=14 report, as verify --no-timing --format json prints it,
        equals the golden: round-trip, transitivity and duality evidence
        included."""
        reports, _ = catalog_reports
        got = [rep.to_dict(no_timing=True) for rep in reports]
        golden = (GOLDENS / "verify_n14.json").read_text()
        assert json.loads(json.dumps(got)) == json.loads(golden)

    def test_reports_match_golden_n16(self):
        """Every n=16 report equals its golden too, which pins the claims
        at an even rank: T6#23/24's U delta at r-2 and the L/C/R sizes at
        rank 8 among them."""
        got = [rep.to_dict(no_timing=True) for rep in verify_catalog(16)]
        golden = (GOLDENS / "verify_n16.json").read_text()
        assert json.loads(json.dumps(got)) == json.loads(golden)

    def test_reports_match_golden_n18(self):
        """Every n=18 report equals its golden.  The table instances have
        rank 9 or 10, so none runs the naive oracle: the recursive check
        alone decides their intersection property, and the interval-order
        bound of is_independent, or its chain fallback, every
        `independent`."""
        got = [rep.to_dict(no_timing=True) for rep in verify_catalog(18)]
        golden = (GOLDENS / "verify_n18.json").read_text()
        assert json.loads(json.dumps(got)) == json.loads(golden)


class TestCriterion9:
    def test_round_trips_and_dot_goldens(self):
        """graph<->sggi round-trip on the golden corpus; DOT bit-exact."""
        prg_files = sorted(GOLDENS.glob("*.prg"))
        assert len(prg_files) == 59
        checked = 0
        for prg in prg_files:
            graph = parse_graph(prg.read_text())
            assert sggi_to_graph(graph_to_sggi(graph)) == graph
            dot_file = prg.with_suffix(".dot")
            assert emit_dot(graph) == dot_file.read_text()
            checked += 1
        assert _line(9, True, f"{checked} golden pairs round-trip, DOT bit-exact")


class TestCriterion10:
    def test_toy_completeness(self):
        """Pruned search over Sym4 equals the unpruned brute force."""
        ambient = named_ambient("sym4-deg4")
        pruned = exhaustive_search(ambient, 2, 3)
        brute = brute_force_search(ambient, 2, 3)
        same = [sig.key() for _, sig in pruned.items] == [
            sig.key() for _, sig in brute.items
        ]
        assert _line(
            10, same,
            f"Sym4: pruned {pruned.schlafli_set()} == brute {brute.schlafli_set()}",
        )
