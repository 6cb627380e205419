"""Automorphism groups, arc permutations and the twisted test."""

import hashlib
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from disorient import (
    Graph,
    NOT_FIXED,
    POINTWISE,
    SETWISE_ONLY,
    Orientation,
    Permutation,
    arc_permutation,
    arcs_of,
    automorphism_generators,
    automorphisms,
    complete_graph,
    connected_graphs,
    cycle_graph,
    encode_graph6,
    enumerate_orientations,
    fixed_set_status,
    hang_centre,
    is_automorphism,
    is_rigid,
    is_twisted,
    nontrivial_automorphism,
    path_graph,
    star_graph,
    tree_automorphism_generators,
    trees,
)
from disorient.orientations import _orbit_reps
from disorient.search import code_rows, find_maps, nontrivial_map


class TestPermutation:
    def test_from_cycles(self):
        p = Permutation.from_cycles(4, [(0, 1, 2)])
        assert p.image == (1, 2, 0, 3)
        assert p.inverse().image == (2, 0, 1, 3)
        assert p.compose(p.inverse()).is_identity

    def test_cycles_and_order(self):
        p = Permutation((1, 0, 3, 4, 2))
        assert set(p.cycles()) == {(0, 1), (2, 3, 4)}
        assert p.order() == 6

    def test_bad_image(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))


class TestAutomorphismGroup:
    def test_triangle(self):
        assert len(list(automorphisms(complete_graph(3)))) == 6
        assert automorphism_generators(complete_graph(3))[1] == 6
        assert not is_rigid(complete_graph(3))

    def test_directed_path_is_rigid(self):
        o = Orientation(path_graph(3), 0)
        assert [p.image for p in automorphisms(o)] == [(0, 1, 2)]
        assert is_rigid(o)

    def test_c4(self):
        assert len(list(automorphisms(cycle_graph(4)))) == 8

    def test_element_order_is_lexicographic(self):
        images = [p.image for p in automorphisms(cycle_graph(4))]
        assert images == sorted(images)
        assert images[0] == (0, 1, 2, 3)

    def test_matches_permutation_filter(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                got = sorted(p.image for p in automorphisms(g))
                assert got == sorted(oracles.brute_automorphism_images(g)), \
                    encode_graph6(g)

    def test_generators_match_permutation_filter(self):
        for n in range(1, 7):
            for g in connected_graphs(n):
                gens, order = automorphism_generators(g)
                assert order == len(oracles.brute_automorphism_images(g)), \
                    encode_graph6(g)
                assert all(is_automorphism(g, p) for p in gens)

    def test_generator_orders_past_element_cap(self):
        for g, order in [(star_graph(9), factorial(9)),
                         (complete_graph(8), factorial(8)),
                         (cycle_graph(10), 20)]:
            gens, got = automorphism_generators(g)
            assert got == order
            assert all(is_automorphism(g, p) for p in gens)

    def test_orientation_groups_inside_base_group(self):
        g = cycle_graph(4)
        base = {p.image for p in automorphisms(g)}
        for vec in range(1 << g.m):
            o = Orientation(g, vec)
            got = sorted(p.image for p in automorphisms(o))
            assert got == sorted(oracles.brute_automorphism_images(o))
            assert set(got) <= base
            gens, order = automorphism_generators(o)
            assert order == len(got)
            assert all(is_automorphism(o, p) for p in gens)

    def test_group_axioms(self):
        group = list(automorphisms(star_graph(3)))
        images = {p.image for p in group}
        assert tuple(range(4)) in images
        for p in group:
            assert p.inverse().image in images
            for q in group:
                assert p.compose(q).image in images

    def test_nontrivial_and_rigid(self):
        assert nontrivial_automorphism(path_graph(3)) is not None
        assert is_rigid(Orientation(path_graph(4), 0))
        p = nontrivial_automorphism(cycle_graph(4))
        assert is_automorphism(cycle_graph(4), p)
        assert not p.is_identity

    def test_search_outputs_pinned(self):
        # Exact generator images and least non-identity maps, for every
        # connected graph on <= 6 vertices and each orientation
        # representative: the differential tests check only membership
        # and order, so this pins the search's output itself.
        def images(perms):
            return " ".join(",".join(map(str, p.image)) for p in perms)

        lines = []
        for n in range(1, 7):
            for g in connected_graphs(n):
                inputs = [(g, "-")]
                inputs += [(o, o.vector) for o in enumerate_orientations(g)]
                for x, tag in inputs:
                    gens, order = automorphism_generators(x)
                    p = nontrivial_automorphism(x)
                    lines.append(f"{encode_graph6(g)} {tag} {order} {images(gens)}"
                                 f" | {images([] if p is None else [p])}")
        assert len(lines) == 21567
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "c1eebcf2acbff01cb2f3c6fdc60a126d20a579b1efe4f0aa2f00cf3c6802150f"

    def test_twin_screen_agrees_with_the_search(self):
        # is_rigid answers graphs with twins without the search
        for n in range(1, 8):
            for g in connected_graphs(n):
                assert is_rigid(g) == (nontrivial_automorphism(g) is None), \
                    encode_graph6(g)


def _closure(n, gens):
    """Every element of the group the generators generate."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        img = frontier.pop()
        for p in gens:
            nxt = tuple(p.image[v] for v in img)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _assert_tree_group(t):
    gens, order = tree_automorphism_generators(hang_centre(t))
    want_gens, want_order = automorphism_generators(t)
    assert order == want_order, encode_graph6(t)
    assert all(is_automorphism(t, p) for p in gens), encode_graph6(t)
    if t.m <= 11:
        got = list(_orbit_reps(t, 20, (gens, order)))
        assert got == list(_orbit_reps(t, 20, (want_gens, want_order))), \
            encode_graph6(t)


@st.composite
def relabelled_trees(draw):
    """A random tree on 3..14 vertices under a random labelling."""
    n = draw(st.integers(3, 14))
    t = Graph.from_edges(n, [(draw(st.integers(0, v - 1)), v)
                             for v in range(1, n)])
    return t.relabel(draw(st.permutations(range(n))))


class TestTreeGenerators:
    """A tree's group in closed form, against the generic search."""

    def test_every_tree(self):
        for n in range(3, 13):
            for t in trees(n):
                _assert_tree_group(t)

    @settings(max_examples=150, deadline=None)
    @given(relabelled_trees())
    def test_under_any_labelling(self, t):
        _assert_tree_group(t)

    def test_generators_generate_the_whole_group(self):
        # the order comes from the formula; the closure shows the
        # generators reach all of it, and the brute force that it is Aut(t)
        for n in range(1, 9):
            for t in trees(n):
                gens, order = tree_automorphism_generators(hang_centre(t))
                group = _closure(t.n, gens)
                assert len(group) == order, encode_graph6(t)
                if n <= 7:
                    assert group == set(oracles.brute_automorphism_images(t)), \
                        encode_graph6(t)

    def test_small_trees_and_given_hanging(self):
        def generators(t):
            return tree_automorphism_generators(hang_centre(t))
        assert generators(path_graph(1)) == ((), 1)
        gens, order = generators(path_graph(2))
        assert ([p.image for p in gens], order) == ([(1, 0)], 2)
        assert generators(star_graph(6))[1] == factorial(6)
        for t in trees(9):
            # the centre swap comes last, exactly when the halves match
            hung = hang_centre(t)
            gens, _ = tree_automorphism_generators(hung)
            if hung.centre.kind == "edge":
                table = {}
                half_a, half_b = hung.halves(table, hung.codes(table, hung.away))
                a, b = hung.centre.vertices
                assert (half_a == half_b) == \
                    (bool(gens) and gens[-1].image[a] == b), encode_graph6(t)

    def test_non_tree_rejected(self):
        # only a tree hangs from its centre
        with pytest.raises(ValueError):
            hang_centre(cycle_graph(4))
        with pytest.raises(ValueError):
            hang_centre(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)]))


class TestArcPermutation:
    def test_c4_rotation_cycle(self):
        g = cycle_graph(4)
        rot = Permutation((1, 2, 3, 0))
        ap = arc_permutation(g, rot)
        arcs = arcs_of(g)
        idx = {a: i for i, a in enumerate(arcs)}
        cyc = next(c for c in ap.cycles() if idx[(0, 1)] in c)
        start = cyc.index(idx[(0, 1)])
        walked = tuple(arcs[cyc[(start + k) % len(cyc)]] for k in range(len(cyc)))
        assert walked == ((0, 1), (1, 2), (2, 3), (3, 0))

    def test_identity(self):
        g = star_graph(3)
        assert arc_permutation(g, Permutation.identity(4)).is_identity

    def test_p3_leaf_swap(self):
        g = path_graph(3)
        ap = arc_permutation(g, Permutation((2, 1, 0)))
        arcs = arcs_of(g)
        idx = {a: i for i, a in enumerate(arcs)}
        assert ap.image[idx[(0, 1)]] == idx[(2, 1)]
        assert ap.image[idx[(1, 0)]] == idx[(1, 2)]

    def test_non_automorphism_rejected(self):
        with pytest.raises(ValueError):
            arc_permutation(path_graph(3), Permutation((1, 2, 0)))


class TestTwisted:
    def test_c4_edge_midpoint_reflection(self):
        # swaps the adjacent pair 0,1 (and 2,3)
        assert is_twisted(cycle_graph(4), Permutation((1, 0, 3, 2)))

    def test_p3_leaf_swap_not_twisted(self):
        assert not is_twisted(path_graph(3), Permutation((2, 1, 0)))

    def test_c4_rotation_not_twisted(self):
        assert not is_twisted(cycle_graph(4), Permutation((1, 2, 3, 0)))

    def test_vs_power_oracle(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                for p in automorphisms(g):
                    assert is_twisted(g, p) == oracles.brute_twisted(g, p.image), \
                        (encode_graph6(g), p.image)


class TestFixedSetStatus:
    def test_pointwise(self):
        group = automorphisms(path_graph(3))
        assert fixed_set_status(group, {1}) == POINTWISE

    def test_setwise_only(self):
        group = automorphisms(star_graph(3))
        assert fixed_set_status(group, {1, 2, 3}) == SETWISE_ONLY

    def test_not_fixed(self):
        group = automorphisms(cycle_graph(4))
        assert fixed_set_status(group, {0}) == NOT_FIXED

    def test_generators_suffice(self):
        gens, _ = automorphism_generators(star_graph(3))
        assert fixed_set_status(gens, {0}) == POINTWISE
        assert fixed_set_status(gens, {1, 2, 3}) == SETWISE_ONLY
        assert fixed_set_status(gens, {0, 1}) == NOT_FIXED
        assert fixed_set_status((), {0, 1}) == POINTWISE
        for n in range(1, 6):
            for g in connected_graphs(n):
                gens, _ = automorphism_generators(g)
                group = list(automorphisms(g))
                for mask in range(1 << n):
                    s = {v for v in range(n) if mask >> v & 1}
                    assert fixed_set_status(gens, s) == \
                        fixed_set_status(group, s), (encode_graph6(g), s)


class TestFindMaps:
    def test_counts_match_group_order(self):
        rows = code_rows(cycle_graph(4))
        assert sum(1 for _ in find_maps(rows)) == 8

    def test_identity_comes_first(self):
        rows = code_rows(path_graph(3))
        assert next(find_maps(rows)) == (0, 1, 2)

    def test_fixed_vertex(self):
        rows = code_rows(path_graph(3))
        assert list(find_maps(rows, fixed=((0, 0),))) == [(0, 1, 2)]

    def test_colour_codes_restrict_maps(self):
        g = path_graph(3)
        plain = code_rows(g)
        coloured = code_rows(g, (1, 2))
        assert nontrivial_map(plain) is not None
        assert nontrivial_map(coloured) is None

    def test_orientation_rows(self):
        o = Orientation(path_graph(3), 0)
        assert nontrivial_map(code_rows(o)) is None
