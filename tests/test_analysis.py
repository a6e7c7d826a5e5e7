"""Block actions, kernels, L/C/R and the delta calculus."""

import sys

import pytest

from stringc.analysis import (
    NOT_IN_KERNEL,
    ODD,
    AnalysisError,
    all_swap_permutation,
    alpha_vector,
    block_action,
    block_lattice,
    block_path_order,
    classify_kernel,
    delta_vector,
    kernel_vector,
    lcr_decompose,
    table3_cell,
)
from stringc.classify import verify_instance
from stringc.families import catalog_instances, descriptor, instantiate_family
from stringc.perms import BlockSystem, PermGroup, StabilizerChain, parse_perm
from stringc.prgraph import graph_to_sggi
from stringc.sggi import Sggi, SubsetLattice

COLS14 = BlockSystem(14, [(j, j + 7) for j in range(1, 8)])


def load(fid, n=14, **params):
    graph = instantiate_family(fid, {"n": n, **params})
    s = graph_to_sggi(graph)
    return s, PermGroup(list(s.gens), s.degree)


def act(s, system, mask=None):
    """block_action of <mask>, by default every generator, on the system."""
    if mask is None:
        mask = (1 << s.rank) - 1
    return block_action(SubsetLattice(s.gens), block_lattice(s, system), mask)


def drop_rho0(s):
    """The mask of G_0: every generator but rho_0."""
    return (1 << s.rank) - 2


class TestBlockAction:
    def test_full_wreath(self):
        gens = [parse_perm("(1,8)", 14)] + [
            parse_perm(f"({i},{i + 1})({i + 7},{i + 8})", 14) for i in range(1, 7)
        ]
        res = act(Sggi(gens), COLS14)
        assert res.image_order == 5040
        assert res.kernel_order == 128
        assert classify_kernel(res, 7) == "C2^m"

    def test_t8_1_two_block_image(self):
        s, group = load("T8#1")
        rows = next(b for b in group.all_block_systems() if b.block_count == 2)
        res = act(s, rows)
        assert res.image_order == 2

    def test_t6_17_g0_kernel_is_c2(self):
        s, _ = load("T6#17", n=16, i=3)
        cols16 = BlockSystem(16, [(j, j + 8) for j in range(1, 9)])
        res = act(s, cols16, drop_rho0(s))
        assert res.kernel_order == 2
        assert classify_kernel(res, 8) == "C2"

    def test_non_invariant_rejected(self):
        bad = BlockSystem(14, [tuple(range(1, 8)), tuple(range(8, 15))])
        s, group = load("T5#13")
        with pytest.raises(AnalysisError):
            block_lattice(s, bad)


class TestClassifyKernel:
    def test_t7_27_g0(self):
        s, _ = load("T7#27", x=1)
        res = act(s, COLS14, drop_rho0(s))
        assert res.kernel_order == 2**6
        assert classify_kernel(res, 7) == "C2^(m-1)"

    def test_trivial(self):
        s, _ = load("T5#13")
        g0 = drop_rho0(s)  # the diagonal simplex: faithful block action
        res = act(s, COLS14, g0)
        assert classify_kernel(res, 7) == "TRIVIAL"

    def test_index_in_wreath(self):
        for fid, expected_index in [("T4#1", 1), ("T5#14", 2)]:
            params = descriptor(fid).param_sweep(14)[0]
            s, group = load(fid, **params)
            res = act(s, COLS14)
            index = (2**7 * res.image_order) // group.order()
            assert index == expected_index


class TestLCR:
    def test_t8_1(self):
        s, group = load("T8#1")
        rows = next(b for b in group.all_block_systems() if b.block_count == 2)
        dec = lcr_decompose(s, block_lattice(s, rows))
        assert sorted(dec.L) == [0]
        assert sorted(dec.C) == [1, 2, 3, 4, 5, 6]
        assert dec.R == frozenset()

    def test_t5_13(self):
        s, _ = load("T5#13")
        dec = lcr_decompose(s, block_lattice(s, COLS14))
        assert dec.sizes() == (6, 0, 1)

    def test_t4_1(self):
        s, _ = load("T4#1")
        dec = lcr_decompose(s, block_lattice(s, COLS14))
        assert dec.sizes() == (6, 1, 1)
        assert sorted(dec.C) == [0] and sorted(dec.R) == [1]

    def test_bound_c_at_most_k_minus_1(self):
        # |C| <= k-1 against the size-2 system (k=2) and the 2-block
        # system (k=n/2).
        for fid in ["T4#3", "T5#14", "T6#21", "T7#25"]:
            params = descriptor(fid).param_sweep(14)[0]
            s, _ = load(fid, **params)
            assert len(lcr_decompose(s, block_lattice(s, COLS14)).C) <= 1
        s, group = load("T8#3")
        two = next(b for b in group.all_block_systems() if b.block_count == 2)
        assert len(lcr_decompose(s, block_lattice(s, two)).C) <= 7 - 1

    def test_bound_l_at_most_m_minus_1(self):
        for fid in ["T4#1", "T5#13", "T6#22", "T7#27"]:
            params = descriptor(fid).param_sweep(14)[0]
            s, _ = load(fid, **params)
            assert len(lcr_decompose(s, block_lattice(s, COLS14)).L) <= 7 - 1


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
        vec = delta_vector(s, 3, block_path_order(s, COLS14))
        assert vec.form == ("O", None)

    def test_t6_21_unique_u(self):
        s, _ = load("T6#21")
        path = block_path_order(s, COLS14)
        forms = [delta_vector(s, i, path).form for i in range(1, 6)]
        assert forms[0] == ("U", None)
        assert all(f == ("O", None) for f in forms[1:])

    def test_t7_25_exact_nontrivial_window(self):
        s, _ = load("T7#25", x=2)
        path = block_path_order(s, COLS14)
        forms = {i: delta_vector(s, i, path).form for i in range(1, 6)}
        assert forms[2] == ("L", 4) and forms[3] == ("L", 2)
        assert all(forms[i] == ("O", None) for i in (1, 4, 5))

    def test_delta_out_of_range(self):
        s, _ = load("T5#13")
        with pytest.raises(AnalysisError):
            delta_vector(s, 0, block_path_order(s, COLS14))

    def test_delta_requires_size_two_blocks(self):
        s, group = load("T8#3")
        two = next(b for b in group.all_block_systems() if b.block_count == 2)
        with pytest.raises(AnalysisError):
            delta_vector(s, 1, block_path_order(s, two))

    def test_alpha_forms_allowed(self):
        # alpha_i should be one of O, L_{i-1}, R_{i+1}, V_{i-1} (with the
        # boundary identifications) on the section-4 families.
        for fid, params in [("T6#17", {"i": 3}), ("T7#26", {"x": 2}),
                            ("T6#21", {}), ("T7#28", {"x": 3})]:
            s, _ = load(fid, **params)
            path = block_path_order(s, COLS14)
            for i in range(1, s.rank - 1):
                form = alpha_vector(s, i, path).form
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
            path = block_path_order(s, COLS14)
            for i in range(1, s.rank - 1):
                row = alpha_vector(s, i, path).form
                col = alpha_vector(s, i + 1, path).form
                delta = delta_vector(s, i, path)
                assert delta is not NOT_IN_KERNEL, (fid, i)
                expected = table3_cell(s.rank, i, row, col)
                assert expected == delta.form, (fid, params, i, row, col)
                assert delta.weight() % 2 == 0 or delta.form == ("U", None)


def _reference_lcr(s, system):
    """L/C/R with every span built from scratch as a PermGroup of the
    block images: the reference for lcr_decompose on a block_lattice."""
    m = system.block_count
    images = [system.action_on_blocks(g) for g in s.gens]
    kept = []
    for idx in range(s.rank):
        if images[idx] not in PermGroup([images[i] for i in kept], m):
            kept.append(idx)
    for idx in sorted(kept, reverse=True):
        if images[idx] in PermGroup([images[i] for i in kept if i != idx], m):
            kept.remove(idx)
    L = frozenset(kept)
    C = frozenset(
        idx for idx in range(s.rank)
        if idx not in L
        and all(s.gens[idx] * s.gens[i] == s.gens[i] * s.gens[idx] for i in L)
    )
    return L, C, frozenset(range(s.rank)) - L - C


def _block_instances(n):
    """Every k2 instance with its column system and every m2 instance with
    its two-block system, on n points."""
    columns = BlockSystem(n, [(j, j + n // 2) for j in range(1, n // 2 + 1)])
    for fid, params in catalog_instances(n):
        blocks = descriptor(fid).expected.get("blocks")
        if blocks not in ("k2", "m2"):
            continue
        s = graph_to_sggi(instantiate_family(fid, params))
        if blocks == "k2":
            yield fid, params, s, columns
        else:
            group = PermGroup(list(s.gens), n)
            yield fid, params, s, next(
                b for b in group.all_block_systems() if b.block_count == 2)


class TestAgainstReference:
    @pytest.mark.parametrize("n", [14, 16])
    def test_catalog_matches_from_scratch_groups(self, n):
        count = 0
        for fid, params, s, system in _block_instances(n):
            lattice = SubsetLattice(s.gens)
            blocks = block_lattice(s, system)
            dec = lcr_decompose(s, blocks)
            assert (dec.L, dec.C, dec.R) == _reference_lcr(s, system), (
                fid, params)
            images = [system.action_on_blocks(g) for g in s.gens]
            for first in (0, 1):  # G, then G_0
                mask = (1 << s.rank) - 1 - first
                image = PermGroup(images[first:], system.block_count).order()
                order = PermGroup(list(s.gens[first:]), n).order()
                res = block_action(lattice, blocks, mask)
                assert (res.image_order, res.kernel_order) == (
                    image, order // image), (fid, params, first)
            count += 1
        assert count > 30

    def test_prune_matches_reference(self):
        # No catalog instance at n = 14 or 16 keeps an index that the prune
        # step then drops.  Here the scan keeps all three images, (12)(34),
        # (13)(24) and (12) on four blocks, and the prune drops the first,
        # which lies in <(13)(24), (12)>.
        s = Sggi([parse_perm(text, 8) for text in (
            "(1,3)(2,4)(5,7)(6,8)", "(1,5)(2,6)(3,7)(4,8)", "(1,3)(2,4)")])
        system = BlockSystem(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
        dec = lcr_decompose(s, block_lattice(s, system))
        assert (dec.L, dec.C, dec.R) == _reference_lcr(s, system)
        assert sorted(dec.L) == [1, 2]

    @pytest.mark.parametrize("family_id", ["T6#17", "T7#27", "T8#3"])
    def test_verify_builds_chains_only_in_the_lattice(self, family_id,
                                                      monkeypatch):
        # Every StabilizerChain that verify_instance builds, for the group,
        # G_0 and the block images alike, is built by SubsetLattice.chain.
        callers = []
        build = StabilizerChain.__init__

        def spy(self, *args, **kwargs):
            callers.append(sys._getframe(1).f_code)
            build(self, *args, **kwargs)

        monkeypatch.setattr(StabilizerChain, "__init__", spy)
        for fid, params in catalog_instances(14):
            if fid == family_id:
                assert verify_instance(fid, params).passed
        assert callers
        assert set(callers) == {SubsetLattice.chain.__code__}
