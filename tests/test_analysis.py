"""Block actions, kernels, L/C/R and the delta calculus."""

import pytest

from stringc.analysis import (
    NOT_IN_KERNEL,
    ODD,
    AnalysisError,
    all_swap_permutation,
    alpha_vector,
    block_action,
    block_path_order,
    classify_kernel,
    delta_vector,
    kernel_vector,
    lcr_decompose,
    table3_cell,
)
from stringc.families import descriptor, instantiate_family
from stringc.perms import BlockSystem, PermGroup, parse_perm
from stringc.prgraph import graph_to_sggi
from stringc.sggi import Sggi

COLS14 = BlockSystem(14, [(j, j + 7) for j in range(1, 8)])


def load(fid, n=14, **params):
    graph = instantiate_family(fid, {"n": n, **params})
    s = graph_to_sggi(graph)
    return s, PermGroup(list(s.gens), s.degree)


def drop_rho0(s):
    return PermGroup(list(s.gens[1:]), s.degree)


class TestBlockAction:
    def test_full_wreath(self):
        gens = [parse_perm("(1,8)", 14)] + [
            parse_perm(f"({i},{i + 1})({i + 7},{i + 8})", 14) for i in range(1, 7)
        ]
        res = block_action(PermGroup(gens), COLS14)
        assert res.image_order == 5040
        assert res.kernel_order == 128
        assert classify_kernel(res, 7) == "C2^m"

    def test_t8_1_two_block_image(self):
        s, group = load("T8#1")
        rows = next(b for b in group.all_block_systems() if b.block_count == 2)
        res = block_action(group, rows)
        assert res.image_order == 2

    def test_t6_17_g0_kernel_is_c2(self):
        s, _ = load("T6#17", n=16, i=3)
        cols16 = BlockSystem(16, [(j, j + 8) for j in range(1, 9)])
        res = block_action(drop_rho0(s), cols16)
        assert res.kernel_order == 2
        assert classify_kernel(res, 8) == "C2"

    def test_non_invariant_rejected(self):
        bad = BlockSystem(14, [tuple(range(1, 8)), tuple(range(8, 15))])
        s, group = load("T5#13")
        with pytest.raises(AnalysisError):
            block_action(group, bad)


class TestClassifyKernel:
    def test_t7_27_g0(self):
        s, _ = load("T7#27", x=1)
        res = block_action(drop_rho0(s), COLS14)
        assert res.kernel_order == 2**6
        assert classify_kernel(res, 7) == "C2^(m-1)"

    def test_trivial(self):
        s, _ = load("T5#13")
        g0 = drop_rho0(s)  # the diagonal simplex: faithful block action
        res = block_action(g0, COLS14)
        assert classify_kernel(res, 7) == "TRIVIAL"

    def test_index_in_wreath(self):
        for fid, expected_index in [("T4#1", 1), ("T5#14", 2)]:
            params = descriptor(fid).param_sweep(14)[0]
            s, group = load(fid, **params)
            res = block_action(group, COLS14)
            index = (2**7 * res.image_order) // group.order()
            assert index == expected_index


class TestLCR:
    def test_t8_1(self):
        s, group = load("T8#1")
        rows = next(b for b in group.all_block_systems() if b.block_count == 2)
        dec = lcr_decompose(s, rows)
        assert sorted(dec.L) == [0]
        assert sorted(dec.C) == [1, 2, 3, 4, 5, 6]
        assert dec.R == frozenset()

    def test_t5_13(self):
        s, _ = load("T5#13")
        dec = lcr_decompose(s, COLS14)
        assert dec.sizes() == (6, 0, 1)

    def test_t4_1(self):
        s, _ = load("T4#1")
        dec = lcr_decompose(s, COLS14)
        assert dec.sizes() == (6, 1, 1)
        assert sorted(dec.C) == [0] and sorted(dec.R) == [1]

    def test_bound_c_at_most_k_minus_1(self):
        # |C| <= k-1 against the size-2 system (k=2) and the 2-block
        # system (k=n/2).
        for fid in ["T4#3", "T5#14", "T6#21", "T7#25"]:
            params = descriptor(fid).param_sweep(14)[0]
            s, _ = load(fid, **params)
            assert len(lcr_decompose(s, COLS14).C) <= 1
        s, group = load("T8#3")
        two = next(b for b in group.all_block_systems() if b.block_count == 2)
        assert len(lcr_decompose(s, two).C) <= 7 - 1

    def test_bound_l_at_most_m_minus_1(self):
        for fid in ["T4#1", "T5#13", "T6#22", "T7#27"]:
            params = descriptor(fid).param_sweep(14)[0]
            s, _ = load(fid, **params)
            assert len(lcr_decompose(s, COLS14).L) <= 7 - 1


class TestVectors:
    def test_kernel_vector_names(self):
        blocks = [(j, j + 7) for j in range(1, 8)]
        swap = all_swap_permutation(COLS14)
        assert kernel_vector(swap, blocks).form == ("U", None)
        first = parse_perm("(1,8)", 14)
        assert kernel_vector(first, blocks).form == ("L", 1)
        rest = parse_perm("".join(f"({j},{j + 7})" for j in range(2, 8)), 14)
        assert kernel_vector(rest, blocks).form == ("R", 1)
        ident = parse_perm("id", 14)
        assert kernel_vector(ident, blocks).form == ("O", None)
        v2 = parse_perm("(1,8)(2,9)(5,12)(6,13)(7,14)", 14)
        assert kernel_vector(v2, blocks).form == ("V", 2)
        t1 = parse_perm("(1,8)(5,12)(6,13)(7,14)", 14)
        assert kernel_vector(t1, blocks).form == ("T", 1)

    def test_block_path_order(self):
        s, _ = load("T5#13")
        ordered = block_path_order(s, COLS14)
        assert ordered == [(j, j + 7) for j in range(1, 8)]

    def test_simplex_delta_trivial(self):
        # Order-3 products cube to the identity: vector O.
        s, _ = load("T5#13")
        vec = delta_vector(s, 3, COLS14)
        assert vec.form == ("O", None)

    def test_t6_21_unique_u(self):
        s, _ = load("T6#21")
        forms = [delta_vector(s, i, COLS14).form for i in range(1, 6)]
        assert forms[0] == ("U", None)
        assert all(f == ("O", None) for f in forms[1:])

    def test_t7_25_exact_nontrivial_window(self):
        s, _ = load("T7#25", x=2)
        forms = {i: delta_vector(s, i, COLS14).form for i in range(1, 6)}
        assert forms[2] == ("L", 4) and forms[3] == ("L", 2)
        assert all(forms[i] == ("O", None) for i in (1, 4, 5))

    def test_delta_out_of_range(self):
        s, _ = load("T5#13")
        with pytest.raises(AnalysisError):
            delta_vector(s, 0, COLS14)

    def test_delta_requires_size_two_blocks(self):
        s, group = load("T8#3")
        two = next(b for b in group.all_block_systems() if b.block_count == 2)
        with pytest.raises(AnalysisError):
            delta_vector(s, 1, two)

    def test_alpha_forms_allowed(self):
        # alpha_i should be one of O, L_{i-1}, R_{i+1}, V_{i-1} (with the
        # boundary identifications) on the section-4 families.
        for fid, params in [("T6#17", {"i": 3}), ("T7#26", {"x": 2}),
                            ("T6#21", {}), ("T7#28", {"x": 3})]:
            s, _ = load(fid, **params)
            for i in range(1, s.rank - 1):
                form = alpha_vector(s, i, COLS14).form
                allowed = {
                    ("O", None),
                    ("L", i - 1),
                    ("R", i + 1),
                    ("V", i - 1),
                    # boundary spellings of the same patterns
                    ("R", 2) if i == 1 else ("L", i - 1),
                    ("L", s.rank - 2) if i == s.rank - 2 else ("O", None),
                }
                assert form in allowed, (fid, i, form)


class TestTable3:
    def test_u_cells(self):
        assert table3_cell(7, 3, ("O", None), ("V", 3)) == ("U", None)
        assert table3_cell(7, 3, ("V", 2), ("O", None)) == ("U", None)

    def test_boundary_tables(self):
        assert table3_cell(7, 1, ("R", 2), ("O", None)) == ("U", None)
        assert table3_cell(7, 1, ("O", None), ("L", 1)) == ODD
        assert table3_cell(7, 5, ("V", 4), ("L", 5)) == ("O", None)

    def test_deltas_match_table_on_instances(self):
        for fid, params in [
            ("T6#17", {"i": 3}),
            ("T6#18", {"i": 2}),
            ("T6#19", {"i": 1}),
            ("T6#20", {"i": 4}),
            ("T6#21", {}),
            ("T6#22", {}),
            ("T6#23", {}),
            ("T6#24", {}),
            ("T7#25", {"x": 2}),
            ("T7#26", {"x": 4}),
            ("T7#27", {"x": 3}),
            ("T7#28", {"x": 1}),
        ]:
            s, _ = load(fid, **params)
            for i in range(1, s.rank - 1):
                row = alpha_vector(s, i, COLS14).form
                col = alpha_vector(s, i + 1, COLS14).form
                delta = delta_vector(s, i, COLS14)
                assert delta is not NOT_IN_KERNEL, (fid, i)
                expected = table3_cell(s.rank, i, row, col)
                assert expected == delta.form, (fid, params, i, row, col)
                assert delta.weight() % 2 == 0 or delta.form == ("U", None)
