"""Distinguishing index for graphs, orientations and rooted trees."""

import hashlib
import random

import pytest

import oracles
from disorient import (
    Colouring,
    Graph,
    Orientation,
    Permutation,
    RootedTree,
    colour_preserving_automorphism,
    complete_bipartite_graph,
    complete_graph,
    connected_graphs,
    count_optimal_rooted_colourings,
    cycle_graph,
    double_star,
    dprime,
    dprime_at_most,
    encode_graph6,
    enumerate_orientations,
    is_distinguishing,
    path_graph,
    preserves,
    rooted_index,
    star_graph,
    trees,
)
from disorient.distinguishing import _candidate_strings, _twin_rules
from disorient.search import code_rows, twin_classes


def _floor(x) -> int:
    """The first width the index search tries on x."""
    g = x.base if isinstance(x, Orientation) else x
    rows = code_rows(x)
    return _twin_rules(g, rows, twin_classes(rows))[0]


def _unpruned_first(x) -> Colouring:
    """First distinguishing candidate of the walk with no twin comparisons."""
    g = x.base if isinstance(x, Orientation) else x
    for k in range(1, g.m + 1):
        for assignment in _candidate_strings(g.m, k, [()] * g.m):
            if is_distinguishing(x, Colouring(k, assignment)):
                return Colouring(k, assignment)
    raise AssertionError("no distinguishing colouring at any width")


def _directed_triangle():
    return Orientation(complete_graph(3), 0b010)


class TestColouring:
    def test_validation(self):
        with pytest.raises(ValueError):
            Colouring(2, (1, 3))
        with pytest.raises(ValueError):
            Colouring(0, ())

    def test_constant(self):
        c = Colouring.constant(4)
        assert c.width == 1
        assert c.assignment == (1, 1, 1, 1)


class TestBreaks:
    def test_leaf_swap_broken(self):
        g = path_graph(3)
        swap = Permutation((2, 1, 0))
        assert not preserves(g, Colouring(2, (1, 2)), swap)
        assert preserves(g, Colouring(2, (2, 2)), swap)

    def test_identity_never_broken(self):
        g = path_graph(3)
        ident = Permutation.identity(3)
        for a in [(1, 1), (1, 2), (2, 2)]:
            assert preserves(g, Colouring(2, a), ident)

    def test_triangle_rotation(self):
        g = complete_graph(3)
        rot = Permutation((1, 2, 0))
        assert not preserves(g, Colouring(2, (1, 1, 2)), rot)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            preserves(path_graph(3), Colouring(2, (1,)), Permutation.identity(3))

    def test_short_permutation_is_no_automorphism(self):
        # a map on fewer or more points than the graph has vertices is no
        # automorphism, as is_automorphism says for a length mismatch
        g = path_graph(3)
        assert not preserves(g, Colouring(2, (1, 2)), Permutation((1, 0)))
        assert not preserves(g, Colouring(2, (1, 1)), Permutation.identity(4))


class TestDprime:
    def test_triangle(self):
        r = dprime(complete_graph(3))
        assert r.value == 3
        assert r.witness.assignment == (1, 2, 3)

    def test_c6(self):
        r = dprime(cycle_graph(6))
        assert r.value == 2
        # lexicographically least distinguishing assignment
        assert r.witness.assignment == (1, 1, 2, 1, 2, 2)

    def test_directed_triangle(self):
        o = _directed_triangle()
        outs = sorted(sum(t == v for t, _ in o.arcs) for v in range(3))
        assert outs == [1, 1, 1]
        assert dprime(o).value == 2

    def test_small_cycles(self):
        assert dprime(cycle_graph(4)).value == 3
        assert dprime(cycle_graph(5)).value == 3
        assert dprime(cycle_graph(7)).value == 2

    def test_stars(self):
        assert dprime(star_graph(3)).value == 3
        assert dprime(star_graph(4)).value == 4

    def test_single_edge_rejected(self):
        with pytest.raises(ValueError):
            dprime(path_graph(2))

    def test_single_arc_allowed(self):
        o = Orientation(path_graph(2), 0)
        assert dprime(o).value == 1

    def test_disconnected_rejected(self):
        from disorient import parse
        with pytest.raises(ValueError):
            dprime(parse("edgelist", "4\n0 1\n2 3"))

    def test_vs_oracle(self):
        for n in range(3, 6):
            for g in connected_graphs(n):
                assert dprime(g).value == oracles.brute_dprime(g), encode_graph6(g)

    def test_orientations_vs_oracle(self):
        g = cycle_graph(4)
        for vec in range(1 << g.m):
            o = Orientation(g, vec)
            assert dprime(o).value == oracles.brute_dprime(o)

    def test_witness_re_verified(self):
        k1 = Graph(1, ())
        rigid = Graph.from_edges(6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 5), (2, 4)])
        rigid_orientation = Orientation(path_graph(3), 0)
        extra = [k1, rigid, rigid_orientation]
        for x in [g for n in range(3, 6) for g in connected_graphs(n)] + extra:
            r = dprime(x)
            assert r.witness.width == r.value
            assert is_distinguishing(x, r.witness)
            assert colour_preserving_automorphism(x, r.witness) is None
            assert dprime_at_most(x, r.value - 1) is None
        for x in extra:
            assert dprime(x).value == 1
            assert dprime_at_most(x, -3) is None

    def test_relabelling_invariance(self):
        rng = random.Random(11)
        for g in connected_graphs(5):
            perm = list(range(5))
            rng.shuffle(perm)
            assert dprime(g.relabel(perm)).value == dprime(g).value

    def test_equal_groups_give_equal_values(self):
        # orientations keeping the whole group keep the index too
        from disorient import automorphisms, enumerate_orientations
        for g in connected_graphs(4):
            base = {p.image for p in automorphisms(g)}
            for o in enumerate_orientations(g):
                if {p.image for p in automorphisms(o)} == base:
                    assert dprime(o).value == dprime(g).value, encode_graph6(g)

    def test_dprime_at_most(self):
        g = complete_graph(3)
        assert dprime_at_most(g, 2) is None
        r = dprime_at_most(g, 3)
        assert r is not None and r.value == 3

    def test_witness_is_the_oracle_first_hit(self):
        for n in range(3, 6):
            for g in connected_graphs(n):
                for x in [g] + enumerate_orientations(g):
                    r = dprime(x)
                    assert r.witness.assignment == \
                        oracles.brute_first_distinguishing(x, r.value), encode_graph6(g)
                    if r.value > 1:
                        assert oracles.brute_first_distinguishing(x, r.value - 1) is None

    def test_witnesses_pinned(self):
        # every connected graph on 3..7 vertices, and the orientation
        # representatives of those with at most 8 edges: 17 188 inputs
        lines = []
        for n in range(3, 8):
            for g in connected_graphs(n):
                xs = [(g, "-")]
                if g.m <= 8:
                    xs += [(o, str(o.vector)) for o in enumerate_orientations(g)]
                for x, tag in xs:
                    r = dprime(x)
                    lines.append(f"{encode_graph6(g)} {tag} {r.value} "
                                 + "".join(map(str, r.witness.assignment)))
        assert len(lines) == 17188
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "6269f9b645cd7ddee8fe62e062464f539bed9a715879d6ed4b2a61490e010676"


class TestCandidates:
    def test_candidate_strings_match_filter(self):
        for m in range(0, 7):
            # each case lists (us, vs) pairs: the colours on the edges us
            # are lexicographically below those on vs, position by position
            cases = [[]]
            if m >= 3:
                cases += [[((0,), (m - 1,))],
                          [((i,), (i + 1,)) for i in range(m - 1)]]
            if m >= 4:
                cases += [[((0,), (2,)), ((1,), (3,))],
                          [((0, 1), (2, 3))],
                          # K_{2,2}'s two classes: edge 3 completes both
                          [((0, 1), (2, 3)), ((0, 2), (1, 3))]]
            for pairs in cases:
                order = [()] * m
                for us, vs in pairs:
                    for j, i in enumerate(vs):
                        order[i] += ((us[:j + 1], vs[:j], j == len(vs) - 1),)
                for k in range(1, 5):
                    want = [a for a in oracles.restricted_growth_strings(m, k)
                            if all(tuple(a[i] for i in us) < tuple(a[i] for i in vs)
                                   for us, vs in pairs)]
                    assert list(_candidate_strings(m, k, order)) == want, (m, k, pairs)

    def test_twin_order_keeps_the_first_witness(self):
        # the twin order skips no witness: dprime agrees with the walk
        # that has no twin comparisons, value and witness
        xs = [complete_bipartite_graph(m, n)
              for m in range(2, 4) for n in range(m + 1, 7) if m * n <= 12]
        xs += [double_star(a, b) for b in range(1, 4) for a in range(1, b + 1)]
        xs += [star_graph(n) for n in range(2, 7)]
        for m, n in ((2, 3), (2, 4), (3, 3), (2, 5)):
            xs += enumerate_orientations(complete_bipartite_graph(m, n))
        for x in xs:
            want = _unpruned_first(x)
            r = dprime(x)
            assert (r.value, r.witness) == (want.width, want), x

    def test_width_floor_below_the_index(self):
        for n in range(3, 8):
            for g in connected_graphs(n):
                xs = [(g, "-")]
                if n <= 6:
                    xs += [(o, o.vector) for o in enumerate_orientations(g)]
                for x, tag in xs:
                    r = dprime(x)
                    if r.value == 1:
                        continue  # the floor bounds structures that are not rigid
                    floor = _floor(x)
                    assert floor <= r.value, (encode_graph6(g), tag)
                    if n <= 5:
                        assert floor <= oracles.brute_dprime(x), (encode_graph6(g), tag)

    def test_open_twins_raise_the_floor(self):
        # five vertices share the neighbourhood {0, 1}: 5 colour vectors
        # on 2 edges need 3 colours, and the floor is the index
        g = complete_bipartite_graph(2, 5)
        assert _floor(g) == 3 == dprime(g).value
        assert _floor(star_graph(4)) == 4
        # with every arc leaving {0, 1}, the five keep equal out- and
        # in-neighbourhoods, so they are twins of the orientation too
        o = Orientation(g, 0)
        assert _floor(o) == 3 == dprime(o).value
        for o in enumerate_orientations(g):
            assert 2 <= _floor(o) <= dprime(o).value, o.vector
        # leaves at one support are twins when their arcs point one way
        o = Orientation(star_graph(4), 0b0011)
        assert _floor(o) == 2
        o = Orientation(star_graph(4), 0b0001)
        assert _floor(o) == 3


class TestRooted:
    def test_examples(self):
        assert rooted_index(RootedTree(path_graph(3), 1)) == 2
        assert rooted_index(RootedTree(path_graph(3), 0)) == 1
        assert rooted_index(RootedTree(star_graph(3), 0)) == 3

    def test_counts_on_named_cases(self):
        assert count_optimal_rooted_colourings(RootedTree(path_graph(3), 1)) == 1
        assert count_optimal_rooted_colourings(RootedTree(path_graph(3), 0)) == 1
        assert count_optimal_rooted_colourings(RootedTree(star_graph(3), 0)) == 1

    def test_rooted_index_vs_oracle(self):
        for n in range(2, 8):
            for t in trees(n):
                for root in range(t.n):
                    want = oracles.oracle_rooted_dprime(t, root)
                    assert rooted_index(RootedTree(t, root)) == want, \
                        (encode_graph6(t), root)

    def test_counts_vs_oracle(self):
        # the full sweep up to 9 vertices runs in the acceptance suite
        for n in range(2, 8):
            for t in trees(n):
                for root in range(t.n):
                    rt = RootedTree(t, root)
                    want, _ = oracles.oracle_count_rooted_classes(t, root)
                    assert count_optimal_rooted_colourings(rt) == want, \
                        (encode_graph6(t), root)

    def test_count_at_larger_width(self):
        rt = RootedTree(path_graph(3), 1)
        # width 3: colour pairs {a,b} with a != b, unordered: 3 classes
        assert count_optimal_rooted_colourings(rt, width=3) == 3

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError):
            RootedTree(cycle_graph(4), 0)
        with pytest.raises(ValueError):
            RootedTree(path_graph(3), 5)
