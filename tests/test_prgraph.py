"""Graph DSL, validation, conversions and canonical-form tests."""

import itertools
import random

import pytest

from stringc.perms import PermGroup, Permutation, parse_perm
from stringc.prgraph import (
    GraphError,
    PRGraph,
    canonical_form,
    emit_dot,
    emit_dsl,
    graph_to_sggi,
    is_connected,
    isomorphic,
    parse_graph,
    sggi_to_graph,
)
from stringc.sggi import Sggi, SggiError


class TestParse:
    def test_path(self):
        g = parse_graph("prg 3 2 / 0 1 2 / 1 2 3")
        assert g.vertices == 3 and g.rank == 2
        assert g.edges == ((0, 1, 2), (1, 2, 3))

    def test_j_edge_expansion(self):
        g = parse_graph("prg 2 2 / {0,1} 1 2")
        assert g.edges == ((0, 1, 2), (1, 1, 2))

    def test_newline_and_comment_form(self):
        g = parse_graph("prg 3 2\n# a comment\n0 1 2\n1 2 3\n")
        assert g.edges == ((0, 1, 2), (1, 2, 3))

    def test_label_out_of_range(self):
        with pytest.raises(GraphError):
            parse_graph("prg 3 2 / 2 1 2 / 0 2 3 / 1 1 3")

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphError):
            parse_graph("prg 3 2 / 0 1 4 / 1 2 3")

    def test_matching_violation(self):
        with pytest.raises(GraphError, match="matching"):
            parse_graph("prg 3 1 / 0 1 2 / 0 2 3")

    def test_missing_label(self):
        with pytest.raises(GraphError, match="label 1"):
            parse_graph("prg 4 2 / 0 1 2")

    def test_square_violation_reports_component(self):
        # 0- and 2-edges sharing a vertex form a 3-vertex path.
        with pytest.raises(GraphError, match=r"\{0,2\}"):
            parse_graph("prg 4 3 / 0 1 2 / 1 3 4 / 2 2 3")

    def test_square_accepted(self):
        g = parse_graph("prg 4 3 / 0 1 2 / 0 3 4 / 2 1 3 / 2 2 4 / 1 2 3")
        assert g.rank == 3


class TestConversions:
    def test_path_to_sggi(self):
        g = parse_graph("prg 3 2 / 0 1 2 / 1 2 3")
        s = graph_to_sggi(g)
        assert s.gens[0] == parse_perm("(1,2)", 3)
        assert s.gens[1] == parse_perm("(2,3)", 3)

    def test_two_zero_edges(self):
        s = Sggi([parse_perm("(1,2)(3,4)", 4)])
        g = sggi_to_graph(s)
        assert g.edges == ((0, 1, 2), (0, 3, 4))

    def test_simplex_round_trip(self):
        s = Sggi([parse_perm(f"({i},{i + 1})", 5) for i in range(1, 5)])
        g = sggi_to_graph(s)
        assert graph_to_sggi(g) == s
        assert sggi_to_graph(graph_to_sggi(g)) == g

    def test_round_trip_random_graphs(self):
        rng = random.Random(31)
        for _ in range(40):
            g = _random_valid_graph(rng)
            if g is None:
                continue
            s = graph_to_sggi(g)
            assert sggi_to_graph(s) == g
            assert graph_to_sggi(sggi_to_graph(s)) == s

    def test_validation_matches_commuting_property(self):
        # Random label-matchings: the validator accepts exactly when the
        # induced involutions satisfy the commuting property.
        rng = random.Random(77)
        for _ in range(200):
            n = rng.randint(4, 10)
            rank = rng.randint(2, 5)
            edges = []
            perms = []
            ok_labels = True
            for lbl in range(rank):
                pts = list(range(1, n + 1))
                rng.shuffle(pts)
                k = rng.randint(1, n // 2)
                pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
                edges.extend((lbl, u, v) for u, v in pairs)
                perms.append(
                    Permutation.from_cycles([list(p) for p in pairs], n)
                )
            try:
                PRGraph(n, rank, edges)
                accepted = True
            except GraphError:
                accepted = False
            commuting = all(
                perms[i] * perms[j] == perms[j] * perms[i]
                for i in range(rank)
                for j in range(i + 2, rank)
            )
            assert accepted == (commuting and ok_labels)

    def test_connected_iff_transitive(self):
        rng = random.Random(5)
        for _ in range(30):
            g = _random_valid_graph(rng)
            if g is None:
                continue
            s = graph_to_sggi(g)
            group = PermGroup(list(s.gens), s.degree)
            assert is_connected(g) == group.is_transitive()


def _random_valid_graph(rng):
    n = rng.randint(4, 12)
    rank = rng.randint(2, 5)
    edges = []
    for lbl in range(rank):
        pts = list(range(1, n + 1))
        rng.shuffle(pts)
        k = rng.randint(1, n // 2)
        edges.extend((lbl, pts[2 * i], pts[2 * i + 1]) for i in range(k))
    try:
        return PRGraph(n, rank, edges)
    except GraphError:
        return None


class TestEmit:
    def test_single_edge_dot(self):
        g = parse_graph("prg 2 1 / 0 1 2")
        assert emit_dot(g) == 'graph prgraph {\n  v1;\n  v2;\n  v1 -- v2 [label="0"];\n}\n'

    def test_j_edge_two_lines(self):
        g = parse_graph("prg 2 2 / {0,1} 1 2")
        dot = emit_dot(g)
        assert dot.count(" -- ") == 2

    def test_dsl_round_trip(self):
        text = "prg 4 3\n{0,2} 1 2\n1 2 3\n{0,2} 3 4\n"
        g = parse_graph(text)
        assert parse_graph(emit_dsl(g)) == g

    def test_dsl_emit_deterministic(self):
        g1 = parse_graph("prg 3 2 / 1 2 3 / 0 1 2")
        g2 = parse_graph("prg 3 2 / 0 1 2 / 1 2 3")
        assert emit_dsl(g1) == emit_dsl(g2)


class TestCanonicalForm:
    def test_relabelled_path_isomorphic(self):
        g1 = parse_graph("prg 3 2 / 0 1 2 / 1 2 3")
        g2 = parse_graph("prg 3 2 / 0 3 2 / 1 2 1")
        assert isomorphic(g1, g2)

    def test_mirrored_two_label_path_is_isomorphic(self):
        g1 = parse_graph("prg 3 2 / 0 1 2 / 1 2 3")
        g2 = parse_graph("prg 3 2 / 1 1 2 / 0 2 3")
        assert isomorphic(g1, g2)

    def test_label_multiplicity_distinguished(self):
        # Two 0-edges and one 1-edge versus the opposite counts.
        g1 = parse_graph("prg 4 2 / 0 1 2 / 0 3 4 / 1 2 3")
        g2 = parse_graph("prg 4 2 / 1 1 2 / 1 3 4 / 0 2 3")
        assert not isomorphic(g1, g2)

    def test_label_sequence_distinguished(self):
        # Valid rank-3 paths with label sequences 0,1,2,1 and 1,0,1,2; the
        # reversal of one is not the other, so no renaming can match them.
        g1 = parse_graph("prg 5 3 / 0 1 2 / 1 2 3 / 2 3 4 / 1 4 5")
        g2 = parse_graph("prg 5 3 / 1 1 2 / 0 2 3 / 1 3 4 / 2 4 5")
        assert not isomorphic(g1, g2)

    def test_random_relabelling_invariance(self):
        rng = random.Random(13)
        for _ in range(40):
            g = _random_valid_graph(rng)
            if g is None:
                continue
            relabel = list(range(1, g.vertices + 1))
            rng.shuffle(relabel)
            moved = PRGraph(
                g.vertices,
                g.rank,
                [(lbl, relabel[u - 1], relabel[v - 1]) for lbl, u, v in g.edges],
            )
            assert canonical_form(g) == canonical_form(moved)

    def test_isomorphic_matches_brute_force(self):
        # Exact in both directions: isomorphic() agrees with a search over
        # every vertex bijection.  Half the pairs are relabellings, half are
        # independent graphs of the same size, which are mostly not
        # isomorphic at this size.
        rng = random.Random(29)
        seen = set()
        for _ in range(300):
            n, rank = rng.randint(2, 6), rng.randint(1, 3)
            a = _small_valid_graph(rng, n, rank)
            if rng.random() < 0.5:
                relabel = rng.sample(range(1, n + 1), n)
                b = PRGraph(n, rank, [(lbl, relabel[u - 1], relabel[v - 1])
                                      for lbl, u, v in a.edges])
            else:
                b = _small_valid_graph(rng, n, rank)
            expected = _brute_force_isomorphic(a, b)
            assert isomorphic(a, b) == expected, (a.edges, b.edges)
            seen.add(expected)
            seen.update(("disconnected",) for g in (a, b)
                        if not is_connected(g))
            seen.update(("J-edge",) for g in (a, b)
                        if len({(u, v) for _, u, v in g.edges}) < len(g.edges))
        assert seen == {True, False, ("disconnected",), ("J-edge",)}


def _small_valid_graph(rng, n, rank):
    while True:
        edges = []
        for lbl in range(rank):
            pts = rng.sample(range(1, n + 1), n)
            k = rng.randint(1, n // 2)
            edges.extend((lbl, pts[2 * i], pts[2 * i + 1]) for i in range(k))
        try:
            return PRGraph(n, rank, edges)
        except GraphError:
            pass


def _brute_force_isomorphic(a, b):
    if (a.vertices, a.rank) != (b.vertices, b.rank):
        return False
    target = set(b.edges)
    for perm in itertools.permutations(range(1, a.vertices + 1)):
        moved = {(lbl, min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]))
                 for lbl, u, v in a.edges}
        if moved == target:
            return True
    return False
