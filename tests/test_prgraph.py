"""Graph DSL, validation, conversions and canonical-form tests."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stringc.perms import PermGroup, Permutation, parse_perm
from stringc.prgraph import (
    GraphError,
    PRGraph,
    canonical_form,
    emit_dot,
    emit_dsl,
    graph_to_sggi,
    involution_form,
    involution_key,
    is_connected,
    orbit_count,
    parse_graph,
    sggi_to_graph,
)
from stringc.sggi import Sggi, SggiError, dual


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
        # 0- and 2-edges sharing a vertex form a 3-vertex path, so (1,2)
        # and (2,3) do not commute: 1 goes to 2 one way and to 3 the other.
        with pytest.raises(GraphError, match=r"^labels \{0,2\} are non-adjacent"
                           r" but do not commute at vertex 1$"):
            parse_graph("prg 4 3 / 0 1 2 / 1 3 4 / 2 2 3")

    def test_square_accepted(self):
        g = parse_graph("prg 4 3 / 0 1 2 / 0 3 4 / 2 1 3 / 2 2 4 / 1 2 3")
        assert g.rank == 3


class TestImages:
    """PRGraph.images against the involutions written from the edges, and
    which rule a graph that breaks several is rejected for."""

    @pytest.fixture(scope="class")
    def graphs(self):
        from stringc.families import catalog_instances, instantiate_family

        catalog = [instantiate_family(fid, params) for points in (14, 16)
                   for fid, params in catalog_instances(points)]
        rng = random.Random(31)
        corpus = [g for g in (_random_valid_graph(rng) for _ in range(60)) if g]
        return catalog + corpus

    def test_images_are_the_edge_involutions(self, graphs):
        for g in graphs:
            cycles = [[] for _ in range(g.rank)]
            for lbl, u, v in g.edges:
                cycles[lbl].append([u, v])
            expected = tuple(Permutation.from_cycles(c, g.vertices).images
                             for c in cycles)
            assert g.images == expected
            assert tuple(p.images for p in graph_to_sggi(g).gens) == expected

    @pytest.mark.parametrize("text, message", [
        # A missing label is reported before a broken matching ...
        ("prg 3 2 / 0 1 2 / 0 2 3", "label 1 occurs on no edge"),
        # ... and before non-commuting labels, the lowest missing label first.
        ("prg 4 5 / 0 1 2 / 1 3 4 / 2 2 3", "label 3 occurs on no edge"),
        # A broken matching is reported before non-commuting labels, at the
        # first vertex of the lowest label's sorted edges.
        ("prg 4 3 / 0 1 2 / 0 2 3 / 1 3 4 / 2 2 3",
         "label 0 is not a matching: vertex 2 has two 0-edges"),
        ("prg 5 3 / 0 1 2 / 1 3 4 / 2 2 3 / 2 2 5",
         "label 2 is not a matching: vertex 2 has two 2-edges"),
        # Of two non-commuting pairs, the first in (i, j) order.
        ("prg 5 4 / 0 1 2 / 1 4 5 / 2 2 3 / 3 3 4",
         "labels {0,2} are non-adjacent but do not commute at vertex 1"),
    ])
    def test_first_broken_rule_is_reported(self, text, message):
        with pytest.raises(GraphError) as caught:
            parse_graph(text)
        assert str(caught.value).startswith(message)

    def test_random_graphs_report_the_first_broken_rule(self):
        # Labels may repeat vertices or be missing, so a graph can break
        # any mix of the three rules; the error names the first in the
        # order coverage, matching, commuting.
        rng = random.Random(91)
        seen = set()
        for _ in range(300):
            n, rank = rng.randint(3, 7), rng.randint(2, 5)
            edges = []
            for _ in range(rng.randint(1, 2 * n)):
                u, v = rng.sample(range(1, n + 1), 2)
                edges.append((rng.randrange(rank), u, v))
            expected = _first_broken_rule(n, rank, edges)
            try:
                PRGraph(n, rank, edges)
                got = None
            except GraphError as exc:
                got = str(exc)
            if expected is None:
                assert got is None
            else:
                assert got is not None and got.startswith(expected), (
                    edges, got, expected)
            seen.add(expected and expected.split()[2])
        assert len(seen) == 4


def _first_broken_rule(n, rank, edges):
    """The message prefix of the first rule the edge list breaks, or None."""
    edges = sorted((lbl, min(u, v), max(u, v)) for lbl, u, v in edges)
    labels = {lbl for lbl, _, _ in edges}
    for lbl in range(rank):
        if lbl not in labels:
            return f"label {lbl} occurs on no edge"
    partner = [{} for _ in range(rank)]
    for lbl, u, v in edges:
        if u in partner[lbl] or v in partner[lbl]:
            return f"label {lbl} is not a matching"
        partner[lbl][u], partner[lbl][v] = v, u
    for i in range(rank):
        for j in range(i + 2, rank):
            a, b = partner[i], partner[j]
            for x in range(1, n + 1):
                if a.get(b.get(x, x), b.get(x, x)) != b.get(a.get(x, x),
                                                             a.get(x, x)):
                    return (f"labels {{{i},{j}}} are non-adjacent but do not "
                            f"commute at vertex {x}")
    return None


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
        assert canonical_form(g1) == canonical_form(g2)

    def test_mirrored_two_label_path_is_isomorphic(self):
        g1 = parse_graph("prg 3 2 / 0 1 2 / 1 2 3")
        g2 = parse_graph("prg 3 2 / 1 1 2 / 0 2 3")
        assert canonical_form(g1) == canonical_form(g2)

    def test_label_multiplicity_distinguished(self):
        # Two 0-edges and one 1-edge versus the opposite counts.
        g1 = parse_graph("prg 4 2 / 0 1 2 / 0 3 4 / 1 2 3")
        g2 = parse_graph("prg 4 2 / 1 1 2 / 1 3 4 / 0 2 3")
        assert canonical_form(g1) != canonical_form(g2)

    def test_label_sequence_distinguished(self):
        # Valid rank-3 paths with label sequences 0,1,2,1 and 1,0,1,2; the
        # reversal of one is not the other, so no renaming can match them.
        g1 = parse_graph("prg 5 3 / 0 1 2 / 1 2 3 / 2 3 4 / 1 4 5")
        g2 = parse_graph("prg 5 3 / 1 1 2 / 0 2 3 / 1 3 4 / 2 4 5")
        assert canonical_form(g1) != canonical_form(g2)

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
        # Exact in both directions: equal canonical forms agree with a
        # search over every vertex bijection.  Half the pairs are
        # relabellings, half are independent graphs of the same size, which
        # are mostly not isomorphic at this size.
        seen = set()
        for a, b in _comparison_corpus():
            expected = _brute_force_isomorphic(a, b)
            same = canonical_form(a) == canonical_form(b)
            assert same == expected, (a.edges, b.edges)
            seen.add(expected)
            seen.update(("disconnected",) for g in (a, b)
                        if not is_connected(g))
            seen.update(("J-edge",) for g in (a, b)
                        if len({(u, v) for _, u, v in g.edges}) < len(g.edges))
        assert seen == {True, False, ("disconnected",), ("J-edge",)}


class TestInvolutionForm:
    @pytest.fixture(scope="class")
    def graphs(self):
        from stringc.classify import catalog_instances
        from stringc.families import instantiate_family

        corpus = [g for pair in _comparison_corpus() for g in pair]
        catalog = [instantiate_family(fid, params)
                   for fid, params in catalog_instances(14)]
        assert len(catalog) == 59
        return corpus + catalog

    def test_form_of_images_is_the_graph_form(self, graphs):
        # Images written straight from the edges, 0-based, not through
        # graph_to_sggi.
        for g in graphs:
            images = [list(range(g.vertices)) for _ in range(g.rank)]
            for lbl, u, v in g.edges:
                images[lbl][u - 1], images[lbl][v - 1] = v - 1, u - 1
            assert involution_form(images) == canonical_form(g)

    def test_reversed_images_give_the_dual_form(self, graphs):
        for g in graphs:
            s = graph_to_sggi(g)
            images = [p.images for p in s.gens]
            assert involution_form(images[::-1]) == canonical_form(
                sggi_to_graph(dual(s)))

    def test_one_component_iff_transitive(self, graphs):
        kinds = set()
        for g in graphs:
            s = graph_to_sggi(g)
            components = involution_form([p.images for p in s.gens])[2]
            transitive = PermGroup(list(s.gens), s.degree).is_transitive()
            assert (len(components) == 1) == transitive == is_connected(g)
            kinds.add(transitive)
        assert kinds == {True, False}


def _reference_table(nbr, start):
    number = {start: 0}
    order = [start]
    table = []
    for x in order:
        for y in nbr[x]:
            if y not in number:
                number[y] = len(order)
                order.append(y)
            table.append(number[y])
    return tuple(table), order


def _reference_form(images):
    """The canonical form as the least complete numbering table over every
    start vertex of each component: the reference for the row-by-row
    pass."""
    nbr = list(zip(*images))
    seen = set()
    components = []
    for start in range(len(nbr)):
        if start in seen:
            continue
        _, comp = _reference_table(nbr, start)
        seen.update(comp)
        components.append(
            (len(comp), min(_reference_table(nbr, v)[0] for v in comp)))
    return (len(nbr), len(images), tuple(sorted(components)))


def _check_against_reference(images):
    images = list(images)
    for oriented in (images, images[::-1]):
        assert involution_form(oriented) == _reference_form(oriented)
    assert involution_key(images) == min(_reference_form(images),
                                         _reference_form(images[::-1]))
    n = len(images[0])
    group = PermGroup([Permutation(image) for image in images], n)
    orbits = {tuple(group.orbit(p)) for p in range(1, n + 1)}
    assert orbit_count(images) == len(orbits)


@st.composite
def involution_tuples(draw):
    """Image tuples of 1..4 involutions on 1..9 points, commuting or not.
    Each label keeps a drawn part of the previous label's pairs (J-edges)
    and matches a drawn number of the other points; unmatched points are
    fixed, and small matchings leave several components."""
    n = draw(st.integers(1, 9))
    images = []
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        pairs = [pair for pair in pairs if draw(st.booleans())]
        used = {x for pair in pairs for x in pair}
        free = [x for x in draw(st.permutations(range(n))) if x not in used]
        k = draw(st.integers(0, len(free) // 2))
        pairs += [(free[2 * i], free[2 * i + 1]) for i in range(k)]
        image = list(range(n))
        for a, b in pairs:
            image[a], image[b] = b, a
        images.append(tuple(image))
    return images


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(involution_tuples())
    @example([(0,)])
    # J-edges {0,1} on labels 0 and 1, three components, a fixed point.
    @example([(1, 0, 3, 2, 4), (1, 0, 2, 3, 4)])
    # A hexagon on three labels: one component.
    @example([(1, 0, 3, 2, 5, 4), (0, 2, 1, 4, 3, 5), (5, 1, 2, 3, 4, 0)])
    def test_random_tuples(self, images):
        _check_against_reference(images)

    @pytest.mark.parametrize("points", [14, 16])
    def test_catalog_graphs(self, points):
        from stringc.classify import catalog_instances
        from stringc.families import instantiate_family

        for fid, params in catalog_instances(points):
            _check_against_reference(instantiate_family(fid, params).images)

    @pytest.mark.parametrize("name, min_rank, order", [
        ("alt5-deg6", 3, None), ("sym5-deg6", 3, None),
        ("c2wrS3-deg6", 4, None), ("s3wrS2-deg6", 4, 36),
    ])
    def test_degree6_raw_tuples(self, name, min_rank, order):
        # The raw tuples of the Tables 1-2 rows, before dedup and before
        # the transitive filter.
        from stringc.ambients import named_ambient
        from stringc.classify import _AmbientModel, _raw_search

        model = _AmbientModel(named_ambient(name))
        found, completed = _raw_search(
            model, min_rank, 5, order or model.order, None,
            range(len(model.involution_indices())))
        assert completed and found
        for combo in found:
            _check_against_reference([model.elements[e].images for e in combo])


def _comparison_corpus():
    """300 pairs of small valid graphs of equal size, half of them a
    relabelling of each other."""
    rng = random.Random(29)
    for _ in range(300):
        n, rank = rng.randint(2, 6), rng.randint(1, 3)
        a = _small_valid_graph(rng, n, rank)
        if rng.random() < 0.5:
            relabel = rng.sample(range(1, n + 1), n)
            b = PRGraph(n, rank, [(lbl, relabel[u - 1], relabel[v - 1])
                                  for lbl, u, v in a.edges])
        else:
            b = _small_valid_graph(rng, n, rank)
        yield a, b


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
