"""Catalog structure, instantiation domains and duality pairing."""

import math

import pytest

from stringc.families import (
    FamilyDomainError,
    descriptor,
    duality_partner,
    family_catalog,
    instantiate_family,
    table_families,
)
from stringc.perms import PermGroup
from stringc.prgraph import emit_dot, graph_to_sggi, is_connected
from stringc.sggi import schlafli

SWEEP_DEGREES = (14, 16, 18, 20, 22)


class TestCatalogShape:
    def test_counts_by_table(self):
        counts = {}
        for desc in family_catalog():
            counts[desc.table] = counts.get(desc.table, 0) + 1
        assert counts == {
            "T4": 12,
            "T5": 4,
            "T6": 8,
            "T7": 4,
            "T8": 7,
            "HIGHC": 2,
            "REP2N": 2,
            "P61": 2,
        }

    def test_id_serialization(self):
        ids = [d.id for d in family_catalog()]
        assert "T4#1" in ids and "T8#7" in ids and "P61#2" in ids
        assert len(set(ids)) == len(ids)

    def test_t6_17_has_interior_parameter(self):
        desc = descriptor("T6#17")
        assert [p.name for p in desc.params] == ["i"]
        assert desc.params[0].values(14) == [2, 3, 4, 5]

    def test_t8_1_parameter_free(self):
        desc = descriptor("T8#1")
        assert desc.params == ()
        assert "C2 x Sym" in descriptor("P61#1").case_tags

    def test_unknown_id(self):
        with pytest.raises(FamilyDomainError):
            descriptor("T9#1")


class TestDomains:
    def test_t7_parity(self):
        instantiate_family("T7#25", {"n": 14, "x": 2})
        with pytest.raises(FamilyDomainError, match="x even"):
            instantiate_family("T7#25", {"n": 14, "x": 1})

    def test_t4_needs_odd_half(self):
        with pytest.raises(FamilyDomainError, match="n/2 odd"):
            instantiate_family("T4#1", {"n": 16})

    def test_minimum_degree(self):
        with pytest.raises(FamilyDomainError, match="n/2 >= 7"):
            instantiate_family("T8#1", {"n": 12})

    def test_odd_degree_rejected(self):
        with pytest.raises(FamilyDomainError, match="even"):
            instantiate_family("T5#13", {"n": 15})

    def test_missing_parameter(self):
        with pytest.raises(FamilyDomainError, match="parameters"):
            instantiate_family("T6#17", {"n": 14})

    def test_param_out_of_range(self):
        with pytest.raises(FamilyDomainError):
            instantiate_family("T6#17", {"n": 14, "i": 1})

    def test_rep2n_domain(self):
        with pytest.raises(FamilyDomainError, match="n >= 7"):
            instantiate_family("REP2N#1", {"n": 6})


class TestInstantiation:
    @pytest.mark.parametrize("n", SWEEP_DEGREES)
    def test_all_instances_validate(self, n):
        # PRGraph construction validates matchings, label coverage and the
        # square condition, so building every admissible instance is the
        # whole check.
        built = 0
        for desc in table_families():
            for params in desc.param_sweep(n):
                graph = desc.instantiate(n, params)
                assert graph.vertices == desc.points_per_n * n
                sggi = graph_to_sggi(graph)
                assert sggi.rank == desc.rank_for(n)
                built += 1
        assert built > 0

    def test_rank_accounting_at_14(self):
        # The four maximal-rank representation graphs sit at n/2+1; every
        # other table instance has rank exactly n/2.
        plus_one = {"T4#1", "T4#2", "T4#7", "T4#8"}
        for desc in table_families():
            expected = 8 if desc.id in plus_one else 7
            assert desc.rank_for(14) == expected

    def test_high_rank_ranks(self):
        assert descriptor("HIGHC#1").rank_for(14) == 13
        assert descriptor("HIGHC#2").rank_for(14) == 12
        assert descriptor("REP2N#1").rank_for(7) == 6
        assert descriptor("REP2N#2").rank_for(7) == 5

    def test_k2_column_pairing_is_block_system(self):
        from stringc.perms import BlockSystem

        for fid in ["T4#1", "T5#13", "T6#21", "T7#25"]:
            desc = descriptor(fid)
            params = desc.param_sweep(14)[0]
            graph = desc.instantiate(14, params)
            group = PermGroup(list(graph_to_sggi(graph).gens), 14)
            columns = BlockSystem(14, [(j, j + 7) for j in range(1, 8)])
            assert all(columns.is_invariant_under(g) for g in group.generators)
            assert columns in group.minimal_block_systems()

    def test_m2_two_block_system_exists(self):
        for fid in ["T8#1", "T8#2", "T8#3", "T8#5", "T8#6", "T8#7"]:
            graph = instantiate_family(fid, {"n": 14})
            group = PermGroup(list(graph_to_sggi(graph).gens), 14)
            assert any(
                s.block_count == 2 for s in group.all_block_systems()
            ), fid

    def test_connected_instances(self):
        for desc in table_families():
            for params in desc.param_sweep(14):
                assert is_connected(desc.instantiate(14, params))


class TestKnownGroups:
    def test_t8_1_order_and_generators(self):
        graph = instantiate_family("T8#1", {"n": 14})
        s = graph_to_sggi(graph)
        assert s.gens[0].cycle_type() == (2,) * 7  # the seven verticals
        assert PermGroup(list(s.gens), 14).order() == 10080

    def test_p61_pair(self):
        for fid in ("P61#1", "P61#2"):
            s = graph_to_sggi(instantiate_family(fid, {"n": 14}))
            assert PermGroup(list(s.gens), 14).order() == 2 * math.factorial(7)
            assert tuple(schlafli(s)) == (2, 3, 3, 3, 3, 3)

    def test_t4_is_full_wreath(self):
        for fid in ("T4#1", "T4#3", "T4#9", "T4#12"):
            params = descriptor(fid).param_sweep(14)[0]
            s = graph_to_sggi(descriptor(fid).instantiate(14, params))
            assert PermGroup(list(s.gens), 14).order() == 2**7 * math.factorial(7)

    def test_rep2n_orders(self):
        for fid, rank in [("REP2N#1", 6), ("REP2N#2", 5)]:
            s = graph_to_sggi(instantiate_family(fid, {"n": 7}))
            g = PermGroup(list(s.gens), 14)
            assert g.order() == 5040 and g.is_transitive()
            assert s.rank == rank

    def test_highc2_schlafli_at_7(self):
        s = graph_to_sggi(instantiate_family("HIGHC#2", {"n": 7}))
        assert tuple(schlafli(s)) == (4, 6, 3, 3)


class TestEmission:
    def test_t4_1_dot_counts(self):
        dot = emit_dot(instantiate_family("T4#1", {"n": 14}))
        lines = dot.splitlines()
        node_lines = [l for l in lines if l.endswith(";") and "--" not in l]
        edge_lines = [l for l in lines if "--" in l]
        assert len(node_lines) == 14
        assert len(edge_lines) == 25
        horizontals = [l for l in edge_lines if _is_horizontal(l)]
        assert len(horizontals) == 12

    def test_t8_1_dot_edges(self):
        dot = emit_dot(instantiate_family("T8#1", {"n": 14}))
        assert dot.count(" -- ") == 7 + 6 + 6


def _is_horizontal(line):
    # Vertical edges connect j and j+7 in the two-row numbering.
    left, right = line.strip().split(" -- ")
    u = int(left.lstrip("v"))
    v = int(right.split(" ")[0].lstrip("v"))
    return abs(u - v) != 7


class TestDuality:
    def test_catalog_graphs_pairwise_distinct_at_14(self):
        from stringc.prgraph import canonical_form

        forms = {}
        for desc in table_families():
            for params in desc.param_sweep(14):
                key = canonical_form(desc.instantiate(14, params))
                assert key not in forms, (desc.id, params, forms[key])
                forms[key] = (desc.id, params)

    def test_self_dual_entries(self):
        assert duality_partner("HIGHC#1", 8) == "SELF"
        assert duality_partner("REP2N#1", 8) == "SELF"

    def test_t8_4_closed_under_duality(self):
        assert duality_partner("T8#4", 14) == "T8#4"

    def test_representatives_without_listed_duals(self):
        # Every family on 14 and on 16 points, REP2N at its own n of 7 and
        # 8.  The tables list one graph per dual pair, so apart from these
        # three the duals are intentionally absent from the catalog.
        listed = {"T8#4": "T8#4", "HIGHC#1": "SELF", "REP2N#1": "SELF"}
        for points, absent in [(14, ()), (16, ("T4", "T7"))]:
            partners = {}
            for desc in family_catalog():
                n = points // 2 if desc.table == "REP2N" else points
                if not desc.domain_error(n):
                    partners[desc.id] = duality_partner(desc.id, n)
            assert set(partners) == {d.id for d in family_catalog()
                                     if d.table not in absent}
            assert partners == {fid: listed.get(fid) for fid in partners}

    def test_dual_graph_roundtrip(self):
        from stringc.prgraph import sggi_to_graph
        from stringc.sggi import dual

        for fid in ["T4#3", "T6#21", "T8#5"]:
            graph = instantiate_family(fid, {"n": 14})
            s = graph_to_sggi(graph)
            assert sggi_to_graph(dual(dual(s))) == graph
