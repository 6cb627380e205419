"""Constructive orientation procedures and the tree case analysis."""

import hashlib
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from disorient import (
    CENTRAL_EDGE_FIXED,
    CENTRAL_EDGE_SWAPPED,
    CENTRAL_VERTEX,
    Colouring,
    ConstructionError,
    Graph,
    Orientation,
    OrderedPartition,
    PairColouring,
    Permutation,
    RootedTree,
    automorphism_generators,
    automorphisms,
    clawfree_graphs,
    clawfree_rigid_orientation,
    clawfree_rigid_orientation_trace,
    compatible_orientation,
    complete_bipartite_graph,
    complete_graph,
    connected_bipartite_graphs,
    connected_graphs,
    cycle_graph,
    double_star,
    dprime,
    encode_graph6,
    hamiltonian_orientation,
    hamiltonian_path,
    is_automorphism,
    is_distinguishing,
    is_rigid,
    layered_orientation,
    merge_colouring,
    natural_bipartition,
    od_extremes,
    parse,
    path_graph,
    rooted_index,
    split_colouring,
    star_graph,
    tree_case,
    tree_od_values,
    trees,
)
from disorient import constructions
from disorient.graphs import cycles


def _images(x):
    return {p.image for p in automorphisms(x)}


def _class_swap_exists(g):
    """True when some automorphism exchanges the two colour classes."""
    left, right = natural_bipartition(g).classes
    if len(left) != len(right):
        return False
    return any(frozenset(img[v] for v in left) == frozenset(right)
               for img in oracles.brute_automorphism_images(g))


def line_theta_graph():
    """Line graph of two degree-3 hubs joined by three length-3 paths.

    Nine vertices, twelve edges, two-connected and claw-free, but the
    longest cycle misses a vertex, which forces the directed-cycle
    seeding branch of the claw-free construction.
    """
    theta_edges = [(0, 1), (1, 2), (2, 7), (0, 3), (3, 4), (4, 7),
                   (0, 5), (5, 6), (6, 7)]
    pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)
             if set(theta_edges[i]) & set(theta_edges[j])]
    return Graph.from_edges(9, pairs)


def net_graph():
    """Triangle with a pendant vertex on each corner; not traceable."""
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])


def _directed_cycles(arcs):
    """All simple directed cycles, each rotated to start at its least vertex."""
    out_adj = {}
    for t, h in arcs:
        out_adj.setdefault(t, []).append(h)
    found = set()

    def walk(start, v, path, seen):
        for w in out_adj.get(v, ()):
            if w == start and len(path) > 1:
                found.add(tuple(path))
            elif w > start and w not in seen:
                walk(start, w, path + [w], seen | {w})

    for s in sorted(out_adj):
        walk(s, s, [s], {s})
    return found


class TestOrderedPartition:
    def test_valid(self):
        p = OrderedPartition.of({0, 2}, {1, 3})
        p.check_for(cycle_graph(4))
        assert p.index_of(0) == 1
        assert p.index_of(3) == 2

    def test_class_with_internal_edge(self):
        p = OrderedPartition.of({0, 1}, {2})
        with pytest.raises(ValueError):
            p.check_for(complete_graph(3))

    def test_not_covering(self):
        p = OrderedPartition.of({0}, {1})
        with pytest.raises(ValueError):
            p.check_for(path_graph(3))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            OrderedPartition.of({0, 1}, {1, 2})


class TestLayered:
    def test_k12(self):
        o = layered_orientation(star_graph(2), OrderedPartition.of({0}, {1, 2}))
        assert o.arcs == ((0, 1), (0, 2))
        assert _images(o) == _images(star_graph(2))

    def test_k23(self):
        g = complete_bipartite_graph(2, 3)
        o = layered_orientation(g, natural_bipartition(g))
        assert all(t in (0, 1) and h in (2, 3, 4) for t, h in o.arcs)
        assert len(_images(o)) == 12

    def test_triangle_has_no_valid_partition(self):
        with pytest.raises(ValueError):
            layered_orientation(complete_graph(3),
                                OrderedPartition.of({0, 1}, {2}))

    def test_keeps_group_on_unswapped_bipartite(self):
        # setwise-fixed classes leave the whole group intact
        for n in range(2, 8):
            for g in connected_bipartite_graphs(n):
                if _class_swap_exists(g):
                    continue
                o = layered_orientation(g, natural_bipartition(g))
                assert _images(o) == _images(g), encode_graph6(g)


class TestSplitMerge:
    def test_p3_worked_example(self):
        g = path_graph(3)
        part = OrderedPartition.of({1}, {0, 2})
        pair = PairColouring(1, bits=(0, 1), colours=(1, 1))
        o, c = split_colouring(g, part, pair)
        assert set(o.arcs) == {(1, 0), (2, 1)}
        assert c.assignment == (1, 1)

    def test_round_trip_everywhere(self):
        g = cycle_graph(6)
        part = natural_bipartition(g)
        for width in (1, 2):
            for bits in product((0, 1), repeat=g.m):
                for colours in product(range(1, width + 1), repeat=g.m):
                    pair = PairColouring(width, bits, colours)
                    o, c = split_colouring(g, part, pair)
                    assert merge_colouring(g, part, o, c) == pair

    def test_all_out_rainbow_star_distinguishes(self):
        g = star_graph(3)
        part = OrderedPartition.of({0}, {1, 2, 3})
        pair = PairColouring(3, bits=(0, 0, 0), colours=(1, 2, 3))
        o, c = split_colouring(g, part, pair)
        assert all(t == 0 for t, _ in o.arcs)
        assert is_distinguishing(o, c)

    def test_flatten_round_trip(self):
        pair = PairColouring(2, (0, 1, 1), (2, 1, 2))
        flat = pair.flatten()
        assert flat.width == 4
        assert PairColouring.from_flat(flat) == pair


class TestHamiltonianOrientation:
    def test_p3(self):
        o = hamiltonian_orientation(path_graph(3), (0, 1, 2))
        assert o.arcs == ((0, 1), (1, 2))
        assert is_rigid(o)

    def test_k3_transitive_tournament(self):
        o = hamiltonian_orientation(complete_graph(3), (0, 1, 2))
        assert set(o.arcs) == {(0, 1), (1, 2), (0, 2)}
        assert is_rigid(o)

    def test_c4(self):
        o = hamiltonian_orientation(cycle_graph(4), (0, 1, 2, 3))
        assert set(o.arcs) == {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert is_rigid(o)

    def test_default_path_is_search_result(self):
        g = cycle_graph(5)
        assert hamiltonian_orientation(g).arcs == \
            hamiltonian_orientation(g, hamiltonian_path(g)).arcs

    def test_rejects_non_path(self):
        with pytest.raises(ValueError):
            hamiltonian_orientation(path_graph(3), (0, 2, 1))
        with pytest.raises(ValueError):
            hamiltonian_orientation(path_graph(3), (0, 1))

    def test_rejects_non_traceable(self):
        with pytest.raises(ValueError):
            hamiltonian_orientation(star_graph(3))

    def test_counts_certify_rigidity(self):
        for n in range(1, 7):
            for g in connected_graphs(n):
                path = hamiltonian_path(g)
                if path is not None:
                    assert is_rigid(hamiltonian_orientation(g, path)), \
                        encode_graph6(g)

    def test_fills_no_cache(self):
        g = cycle_graph(5)
        before = dict(vars(g))
        o = hamiltonian_orientation(g, (0, 1, 2, 3, 4))
        assert vars(g) == before and set(vars(o)) == {"base", "vector"}

    def test_arc_against_the_path_is_caught(self, monkeypatch):
        # positions read backwards point every arc earlier on the path,
        # so the reverse-order pass sees no out-neighbour's set yet
        monkeypatch.setattr(constructions, "_positions",
                            lambda path: {v: -i for i, v in enumerate(path)})
        with pytest.raises(ConstructionError):
            hamiltonian_orientation(path_graph(3), (0, 1, 2))


class TestCompatibleOrientation:
    def test_c4_rotation(self):
        g = cycle_graph(4)
        rot = Permutation((1, 2, 3, 0))
        o = compatible_orientation(g, rot)
        assert set(o.arcs) == {(0, 1), (1, 2), (2, 3), (3, 0)}
        assert is_automorphism(o, rot)

    def test_p3_leaf_swap(self):
        g = path_graph(3)
        swap = Permutation((2, 1, 0))
        o = compatible_orientation(g, swap)
        assert set(o.arcs) in ({(0, 1), (2, 1)}, {(1, 0), (1, 2)})
        assert is_automorphism(o, swap)

    def test_twisted_rejected(self):
        with pytest.raises(ValueError, match="twisted"):
            compatible_orientation(cycle_graph(4), Permutation((1, 0, 3, 2)))
        # the 4-cycle of K4 takes the arc 0->2 to 1->3 and then to 2->0, so
        # the edge cycle through (0, 2) closes with the direction reversed
        with pytest.raises(ValueError, match="twisted"):
            compatible_orientation(complete_graph(4), Permutation((1, 2, 3, 0)))

    def test_preserved_across_small_graphs(self):
        from disorient import connected_graphs, is_twisted
        for g in connected_graphs(5):
            for p in automorphisms(g):
                if p.is_identity or is_twisted(g, p):
                    continue
                o = compatible_orientation(g, p)
                assert is_automorphism(o, p), (encode_graph6(g), p.image)

    def test_orientations_pinned(self):
        # SHA-256 of the newline-joined digraph6 of compatible_orientation(g, p)
        # for every non-twisted p of every connected graph on <= 6 vertices,
        # in corpus and automorphisms order: pins each orientation, not only
        # that it admits p
        from disorient import encode_digraph6, is_twisted
        lines = [encode_digraph6(compatible_orientation(g, p))
                 for n in range(1, 7) for g in connected_graphs(n)
                 for p in automorphisms(g) if not is_twisted(g, p)]
        assert len(lines) == 947
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "f8ad6cd51be6f51b69f812fbade4bd541b8c7702d1c0ebd41f5fcb5e6395bb90"


class TestClawfree:
    def test_c6_uses_hamiltonian_branch(self):
        tr = clawfree_rigid_orientation_trace(cycle_graph(6))
        assert tr.branch == "hamiltonian"
        assert _images(tr.result) == {tuple(range(6))}

    def test_prism(self):
        prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                     (3, 5), (0, 3), (1, 4), (2, 5)])
        o = clawfree_rigid_orientation(prism)
        assert is_rigid(o)

    def test_claw_rejected(self):
        big_claw = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        with pytest.raises(ValueError, match="not claw-free"):
            clawfree_rigid_orientation(big_claw)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            clawfree_rigid_orientation(cycle_graph(5))

    def test_cycle_branch_on_line_theta(self):
        g = line_theta_graph()
        tr = clawfree_rigid_orientation_trace(g)
        assert tr.branch == "cycle"
        assert is_rigid(tr.result)
        assert od_extremes(g).od_minus == 1
        # at the checkpoint every directed cycle stays inside the seeded
        # cycle's vertices (chords close shorter ones; that is fine) and
        # the seeded cycle is the only one of full length
        on_cycle = set(tr.cycle)
        checkpoint = _directed_cycles(tr.checkpoint_arcs)
        assert all(set(c) <= on_cycle for c in checkpoint)
        assert [c for c in checkpoint if len(c) == len(tr.cycle)] == [tr.cycle]
        # the leftover phase may not close any new directed cycle
        assert _directed_cycles(tr.result.arcs) == checkpoint

    def test_cut_vertex_branch_on_net(self):
        tr = clawfree_rigid_orientation_trace(net_graph())
        assert tr.branch == "cut_vertex"
        assert tr.source is not None
        assert all(h != tr.source for _, h in tr.result.arcs)
        assert is_rigid(tr.result)


    def test_traces_pinned(self):
        # SHA-256 of (graph6, branch, arcs, cycle, checkpoint arcs, source)
        # of every trace over the claw-free corpora on 6 to 8 vertices, in
        # corpus order
        lines = []
        for n in (6, 7, 8):
            for g in clawfree_graphs(n):
                tr = clawfree_rigid_orientation_trace(g)
                lines.append(repr((encode_graph6(g), tr.branch, tr.result.arcs,
                                   tr.cycle, tr.checkpoint_arcs, tr.source)))
        assert len(lines) == 1122
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "6ceda236d9c65543cc536a048b182d2d25bc131c475bccfca3990eb60355c957"

    # the corpus graphs on nine vertices that reach the cycle branch and
    # succeed: the seeded cycle, the arcs at the checkpoint, and the arcs
    # the leftover phase adds
    @pytest.mark.parametrize("g6, cycle, checkpoint, leftover", [
        ("HqGOPXY", (0, 1, 3, 8, 6, 4, 7, 2),
         ((0, 1), (2, 0), (1, 3), (1, 8), (4, 2), (7, 2), (3, 5), (3, 8),
          (6, 4), (4, 7), (8, 4), (8, 6)), {(7, 5)}),
        ("HqGOPxY", (0, 1, 3, 8, 6, 4, 7, 2),
         ((0, 1), (2, 0), (1, 3), (1, 8), (4, 2), (7, 2), (3, 5), (3, 7),
          (3, 8), (6, 4), (4, 7), (8, 4), (8, 6)), {(7, 5)}),
        ("HqGUBqs", (2, 0, 8, 5, 3, 1, 7, 4),
         ((0, 1), (2, 0), (0, 6), (0, 8), (3, 1), (1, 7), (4, 2), (2, 7),
          (2, 8), (5, 3), (3, 7), (8, 3), (7, 4), (8, 5)), {(1, 6)}),
    ])
    def test_cycle_branch_at_nine_pinned(self, g6, cycle, checkpoint, leftover):
        tr = clawfree_rigid_orientation_trace(parse("graph6", g6))
        assert (tr.branch, tr.cycle, tr.checkpoint_arcs, tr.source) == \
            ("cycle", cycle, checkpoint, None)
        assert set(tr.result.arcs) == set(checkpoint) | leftover


class TestDirectedCycles:
    def test_cycles_match_reference(self):
        # every orientation of every connected graph on 3 to 5 vertices:
        # the same cycles as the reference walk, once each, in
        # lexicographic order
        for n in range(3, 6):
            for g in connected_graphs(n):
                for vec in range(1 << g.m):
                    o = Orientation(g, vec)
                    out = [0] * n
                    for t, h in o.arcs:
                        out[t] |= 1 << h
                    assert list(cycles(out)) == sorted(_directed_cycles(o.arcs)), \
                        (encode_graph6(g), vec)


class TestTreeCase:
    def test_star(self):
        tc = tree_case(star_graph(3))
        assert tc.kind == CENTRAL_VERTEX
        assert tc.center.vertices == (0,)
        assert tc.unique_optimal is None
        assert tc.dprime == 3

    def test_p4(self):
        tc = tree_case(path_graph(4))
        assert tc.kind == CENTRAL_EDGE_SWAPPED
        assert tc.unique_optimal is True
        # each half is an edge rooted at an end, of index 1 with one class
        assert tc.dprime == 2

    def test_unbalanced_double_star(self):
        tc = tree_case(double_star(1, 2))
        assert tc.kind == CENTRAL_EDGE_FIXED
        assert tc.unique_optimal is None
        assert tc.dprime == 2

    def test_balanced_double_star(self):
        tc = tree_case(double_star(2, 2))
        assert tc.kind == CENTRAL_EDGE_SWAPPED
        assert tc.unique_optimal is True
        # each half is a cherry rooted at its centre: index 2, one class
        assert tc.dprime == 3

    def test_small_input_rejected(self):
        with pytest.raises(ValueError):
            tree_case(path_graph(2))


class TestTreeOdValues:
    def test_named_cases(self):
        assert tree_od_values(star_graph(3))[:2] == (2, 3)
        assert tree_od_values(path_graph(4))[:2] == (1, 1)
        assert tree_od_values(double_star(2, 2))[:2] == (1, 2)
        assert tree_od_values(path_graph(5))[:2] == (1, 2)

    def test_vs_brute_oracle(self):
        for n in range(3, 7):
            for t in trees(n):
                lo, hi = oracles.brute_od_extremes(t)
                assert tree_od_values(t)[:2] == (lo, hi), encode_graph6(t)

    def test_case_tag_returned(self):
        _, _, tc = tree_od_values(path_graph(4))
        assert tc.kind == CENTRAL_EDGE_SWAPPED


def complete_tree(arity, depth):
    """Every internal vertex has arity children, every leaf is at depth."""
    n = (arity ** (depth + 1) - 1) // (arity - 1)
    return Graph.from_edges(n, (((v - 1) // arity, v) for v in range(1, n)))


def _orbit(gens, v):
    orbit = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for p in gens:
            w = p.image[u]
            if w not in orbit:
                orbit.add(w)
                stack.append(w)
    return orbit


@st.composite
def relabelled_trees(draw):
    """A random tree on 3..12 vertices and a random relabelling of it."""
    n = draw(st.integers(3, 12))
    t = Graph.from_edges(n, [(draw(st.integers(0, v - 1)), v)
                             for v in range(1, n)])
    return t, draw(st.permutations(range(n)))


class TestTreeCounting:
    def test_counted_index_and_swap_vs_search(self):
        for n in range(3, 13):
            for t in trees(n):
                case = tree_case(t)
                assert case.dprime == dprime(t).value, encode_graph6(t)
                if case.center.kind == "edge":
                    a, b = case.center.vertices
                    swapped = b in _orbit(automorphism_generators(t)[0], a)
                    assert (case.kind == CENTRAL_EDGE_SWAPPED) == swapped, \
                        encode_graph6(t)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(relabelled_trees(), st.data())
    def test_invariant_under_relabelling(self, pair, data):
        t, image = pair
        u = t.relabel(image)
        lo, hi, case = tree_od_values(t)
        lo_u, hi_u, case_u = tree_od_values(u)
        assert (lo, hi, case.kind, case.unique_optimal) == \
            (lo_u, hi_u, case_u.kind, case_u.unique_optimal)
        root = data.draw(st.integers(0, t.n - 1))
        assert rooted_index(RootedTree(t, root)) == \
            rooted_index(RootedTree(u, image[root]))

    def test_deep_paths(self):
        # AHU codes compare as integers, so depth is not a recursion limit
        assert tree_od_values(path_graph(3000))[:2] == tree_od_values(path_graph(10))[:2]
        assert tree_od_values(path_graph(3001))[:2] == tree_od_values(path_graph(11))[:2]

    def test_reach_past_the_search(self):
        # every vertex's children share one shape, so E_k = 1 at k = arity
        assert tree_od_values(complete_tree(2, 5))[:2] == (1, 2)
        assert tree_od_values(complete_tree(3, 3))[:2] == (2, 3)
