"""Orientation sweeps and the min/max index over orientations."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from disorient import (
    Colouring,
    EdgeCapError,
    Graph,
    Orientation,
    RootedTree,
    automorphisms,
    connected_graphs,
    cycle_graph,
    dprime,
    encode_digraph6,
    encode_graph6,
    enumerate_orientations,
    find_rigid_orientation,
    hang_centre,
    is_distinguishing,
    is_rigid,
    is_tree,
    od_extremes,
    od_minus,
    od_plus,
    oriented_tree_colouring,
    oriented_tree_index,
    parse,
    path_graph,
    rooted_index,
    star_graph,
    tree_center,
    tree_od_values,
    trees,
)
from disorient import orientations
from disorient.distinguishing import _classes_distinct
from disorient.groups import _action_tables, orbit_minima
from disorient.orientations import _orbit_reps, _pendant_floor


def _orbit_of(g, vec):
    """All direction vectors reachable from vec under the graph's group."""
    out = set()
    for img in oracles.brute_automorphism_images(g):
        ep = oracles.edge_perm_of(g, img)
        flips = [1 if img[u] > img[v] else 0 for u, v in g.edges]
        w = 0
        for i in range(g.m):
            bit = (vec >> i) & 1 ^ flips[i]
            w |= bit << ep[i]
        out.add(w)
    return out


def _reference_sweep(g):
    """First least, first greatest and first rigid representative.

    Calls dprime on every representative, with no early stop and no
    decision by orbit size.
    """
    lo = hi = rigid = None
    for o in enumerate_orientations(g):
        r = dprime(o)
        if lo is None or r.value < lo[0]:
            lo = (r.value, o.vector, r.witness)
        if hi is None or r.value > hi[0]:
            hi = (r.value, o.vector, r.witness)
        if rigid is None and r.value == 1:
            rigid = o.vector
    return lo, hi, rigid


# connected graphs on at most 6 vertices, then trees on 7 to 9
BOUNDS_CORPUS = ([g for n in range(1, 7) for g in connected_graphs(n)]
                 + [t for n in range(7, 10) for t in trees(n)])


def _assert_sweeps_match_reference(g):
    lo, hi, rigid = _reference_sweep(g)
    r = od_extremes(g)
    label = encode_graph6(g)
    assert (r.od_minus, r.witness_min.vector, r.colouring_min) == lo, label
    assert (r.od_plus, r.witness_max.vector, r.colouring_max) == hi, label
    v, o, c = od_minus(g)
    assert (v, o.vector, c) == lo, label
    v, o, c = od_plus(g)
    assert (v, o.vector, c) == hi, label
    o = find_rigid_orientation(g)
    assert (None if o is None else o.vector) == rigid, label


def _ceiling(g):
    """No orientation's index exceeds this, by the sweep's proof."""
    if is_tree(g) and g.n > 2:
        return rooted_index(RootedTree(g, tree_center(g).vertices[0]))
    return 1 if g.n == 2 else dprime(g).value


def _reps_walked(monkeypatch):
    """Count of representatives the sweeps take from _orbit_reps."""
    walked = []

    def spy(g, edge_cap, group=None):
        for rep in _orbit_reps(g, edge_cap, group):
            walked.append(rep)
            yield rep
    monkeypatch.setattr(orientations, "_orbit_reps", spy)
    return walked


class TestSweepBounds:
    def test_every_representative_within_bounds(self):
        for g in BOUNDS_CORPUS:
            floor, ceiling = _pendant_floor(g), _ceiling(g)
            for o in enumerate_orientations(g):
                assert floor <= dprime(o).value <= ceiling, \
                    (encode_graph6(g), o.vector)

    def test_tree_ceiling_reached_pointing_away_from_centre(self):
        for n in range(3, 10):
            for t in trees(n):
                hung = hang_centre(t)
                o = Orientation(t, hung.away)
                assert dprime(o).value == _ceiling(t) == od_plus(t)[0], \
                    encode_graph6(t)

    def test_floor_not_reached_walks_to_the_end(self, monkeypatch):
        # the one tree on at most 10 vertices whose least index is above
        # the floor: no bound stops the least, so the walk must finish
        g = parse("graph6", "IqH@C?@?O")
        assert (_pendant_floor(g), od_minus(g)[0]) == (1, 2)
        _assert_sweeps_match_reference(g)
        walked = _reps_walked(monkeypatch)
        od_minus(g)
        assert len(walked) == len(enumerate_orientations(g))

    def test_walk_stops_at_each_bound(self, monkeypatch):
        walked = _reps_walked(monkeypatch)
        # K1,4: every orientation has two leaf arcs the same way, so the
        # floor is 2; the representatives with 0, 1 and 2 arcs reversed
        # are walked, not those with 3 and 4
        assert od_minus(star_graph(4))[0] == 2
        assert len(walked) == 3
        # a swapped central edge with a unique optimal half: D = 3, but
        # the first representative already reaches the ceiling 2
        walked.clear()
        assert od_plus(parse("graph6", "Eq`?"))[0] == 2
        assert len(walked) == 1


class TestEnumerate:
    def test_p3(self):
        g = path_graph(3)
        full = [Orientation(g, v) for v in range(1 << g.m)]
        assert [o.vector for o in full] == [0, 1, 2, 3]
        reps = enumerate_orientations(g)
        assert len(reps) == 3

    def test_single_edge(self):
        g = path_graph(2)
        assert len([Orientation(g, v) for v in range(1 << g.m)]) == 2
        assert len(enumerate_orientations(g)) == 1

    def test_c4(self):
        g = cycle_graph(4)
        assert len([Orientation(g, v) for v in range(1 << g.m)]) == 16
        assert len(enumerate_orientations(g)) == 4

    def test_orbit_counts_vs_counting_formula(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                reps = enumerate_orientations(g)
                assert len(reps) == oracles.orientation_orbit_count(g), \
                    encode_graph6(g)

    def test_representatives_are_least_in_orbit(self):
        for g in [path_graph(4), cycle_graph(4), star_graph(3), cycle_graph(5)]:
            vecs = [o.vector for o in enumerate_orientations(g)]
            assert vecs == sorted(vecs)
            for v in vecs:
                assert v == min(_orbit_of(g, v))

    def test_star_past_element_cap(self):
        # |Aut| = 9!; an orbit is fixed by the out-degree of the centre,
        # and its least vector reverses the first k edges
        g = star_graph(9)
        reps = enumerate_orientations(g)
        assert [o.vector for o in reps] == [(1 << k) - 1 for k in range(10)]
        outdeg = [sum(1 for t, _ in o.arcs if t == 0) for o in reps]
        assert sorted(outdeg) == list(range(10))

    def test_orbits_cover_everything(self):
        g = cycle_graph(4)
        covered = set()
        for o in enumerate_orientations(g):
            covered |= _orbit_of(g, o.vector)
        assert covered == set(range(16))

    def test_edge_cap(self):
        with pytest.raises(EdgeCapError):
            enumerate_orientations(cycle_graph(4), edge_cap=3)

    def test_orbit_size_times_stabiliser_is_group_order(self):
        # the sweeps decide rigid and fully fixed orientations from these
        # sizes, so check orbit-stabiliser against brute-force groups
        for n in range(1, 6):
            for g in connected_graphs(n):
                whole = len(oracles.brute_automorphism_images(g))
                for v, size, order in _orbit_reps(g, 20):
                    o = Orientation(g, v)
                    assert order == whole, encode_graph6(g)
                    assert size == len(_orbit_of(g, v)), (encode_graph6(g), v)
                    stab = len(oracles.brute_automorphism_images(o))
                    assert size * stab == whole, (encode_graph6(g), v)


class TestExtremes:
    def test_p4(self):
        r = od_extremes(path_graph(4))
        assert (r.od_minus, r.od_plus) == (1, 1)

    def test_claw(self):
        r = od_extremes(star_graph(3))
        assert (r.od_minus, r.od_plus) == (2, 3)

    def test_c4(self):
        r = od_extremes(cycle_graph(4))
        assert (r.od_minus, r.od_plus) == (1, 2)
        # the maximum over orientations can undercut the undirected index
        assert dprime(cycle_graph(4)).value == 3

    def test_k14(self):
        assert od_extremes(star_graph(4)).od_minus == 2
        assert od_extremes(star_graph(4)).od_plus == 4

    def test_k19_past_element_cap(self):
        r = od_extremes(star_graph(9))
        assert (r.od_minus, r.od_plus) == (5, 9)

    def test_witnesses(self):
        for g in [star_graph(3), cycle_graph(4), path_graph(5)]:
            r = od_extremes(g)
            assert dprime(r.witness_min).value == r.od_minus
            assert dprime(r.witness_max).value == r.od_plus
            assert r.colouring_min.width == r.od_minus
            assert is_distinguishing(r.witness_min, r.colouring_min)
            assert is_distinguishing(r.witness_max, r.colouring_max)

    def test_witnesses_pinned(self):
        # both extremes with their witness orientations and colourings, and
        # the first rigid orientation, of every connected graph on 3..6
        # vertices and every tree on 3..10: 340 graphs
        lines = []
        for g in [*(g for n in range(3, 7) for g in connected_graphs(n)),
                  *(t for n in range(3, 11) for t in trees(n))]:
            r = od_extremes(g)
            rig = find_rigid_orientation(g)
            lines.append(" ".join([
                encode_graph6(g), str(r.od_minus), encode_digraph6(r.witness_min),
                "".join(map(str, r.colouring_min.assignment)), str(r.od_plus),
                encode_digraph6(r.witness_max),
                "".join(map(str, r.colouring_max.assignment)),
                "-" if rig is None else encode_digraph6(rig)]))
        assert len(lines) == 340
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "e69e454b35f7e3817ea3c0f41604af4f28a09dbb394fcfd57e2e4d928cb56791"

    def test_vs_no_dedup_oracle(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                lo, hi = oracles.brute_od_extremes(g)
                r = od_extremes(g)
                assert (r.od_minus, r.od_plus) == (lo, hi), encode_graph6(g)

    def test_single_functions_agree(self):
        for g in [star_graph(3), cycle_graph(5)]:
            r = od_extremes(g)
            assert od_minus(g)[0] == r.od_minus
            assert od_plus(g)[0] == r.od_plus

    def test_bounded_by_undirected_index(self):
        for n in range(3, 6):
            for g in connected_graphs(n):
                assert od_extremes(g).od_plus <= dprime(g).value, encode_graph6(g)

    def test_vs_reference_loop(self):
        for g in BOUNDS_CORPUS:
            _assert_sweeps_match_reference(g)

    def test_disconnected_rejected(self):
        from disorient import parse
        with pytest.raises(ValueError):
            od_extremes(parse("edgelist", "4\n0 1\n2 3"))

    def test_edge_cap(self):
        with pytest.raises(EdgeCapError):
            od_extremes(cycle_graph(5), edge_cap=4)


class TestFindRigid:
    def test_claw_has_none(self):
        assert find_rigid_orientation(star_graph(3)) is None

    def test_paths_and_cycles(self):
        for g in [path_graph(4), cycle_graph(4), cycle_graph(6)]:
            o = find_rigid_orientation(g)
            assert o is not None
            assert is_rigid(o)
            assert [p.image for p in automorphisms(o)] == [tuple(range(g.n))]

    def test_first_in_representative_order(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                expected = next((o for o in enumerate_orientations(g)
                                 if is_rigid(o)), None)
                got = find_rigid_orientation(g)
                if expected is None:
                    assert got is None, encode_graph6(g)
                else:
                    assert got is not None
                    assert got.vector == expected.vector, encode_graph6(g)

    def test_present_iff_minimum_is_one(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                present = find_rigid_orientation(g) is not None
                assert present == (od_extremes(g).od_minus == 1), encode_graph6(g)


@st.composite
def oriented_trees(draw):
    """A random tree on 3..12 vertices with a random orientation."""
    n = draw(st.integers(3, 12))
    t = Graph.from_edges(n, [(draw(st.integers(0, v - 1)), v)
                             for v in range(1, n)])
    return Orientation(t, draw(st.integers(0, (1 << t.m) - 1)))


@st.composite
def relabelled_trees(draw):
    """A random tree on 3..12 vertices under a random labelling."""
    t = draw(oriented_trees()).base
    return t.relabel(draw(st.permutations(range(t.n))))


class TestCountedTreeSweep:
    """A tree's sweep counts; the generic search stays the check."""

    def test_counted_index_on_every_representative(self):
        for n in range(3, 10):
            for t in trees(n):
                for v, _, _ in _orbit_reps(t, 20):
                    o = Orientation(t, v)
                    want = dprime(o)
                    assert oriented_tree_index(o) == want.value, \
                        (encode_graph6(t), v)
                    assert oriented_tree_colouring(o, want.value) == \
                        want.witness, (encode_graph6(t), v)

    def test_extremes_vs_no_dedup_oracle(self):
        for n in range(3, 7):
            for t in trees(n):
                r = od_extremes(t)
                assert (r.od_minus, r.od_plus) == oracles.brute_od_extremes(t), \
                    encode_graph6(t)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(oriented_trees())
    def test_counted_index_vs_search(self, o):
        want = dprime(o)
        assert oriented_tree_index(o) == want.value
        assert oriented_tree_colouring(o, want.value) == want.witness

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(oriented_trees(), st.data())
    def test_rooted_classes_vs_stabiliser_test(self, o, data):
        t = o.base
        width = data.draw(st.integers(1, 3))
        colours = tuple(data.draw(st.lists(st.integers(1, width),
                                           min_size=t.m, max_size=t.m)))
        hung = hang_centre(t)
        assert _classes_distinct(hung, o.vector, colours) == \
            is_distinguishing(o, Colouring(width, colours))

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(relabelled_trees())
    def test_extremes_under_any_labelling(self, t):
        # the ceiling must not depend on which way the labels run
        r = od_extremes(t)
        assert (r.od_minus, r.od_plus) == tree_od_values(t)[:2]
        for o, c, value in ((r.witness_min, r.colouring_min, r.od_minus),
                            (r.witness_max, r.colouring_max, r.od_plus)):
            assert c.width == value and is_distinguishing(o, c)

    def test_tree_colourings_found_on_first_read(self, monkeypatch):
        # a tree's sweep keeps no colouring: each extreme finds its own the
        # first time it is read, unless a rigid orbit gave it the constant
        # colouring, and what it finds is od_minus's or od_plus's
        wants = [(od_minus(t)[2], od_plus(t)[2]) for t in trees(8)]
        calls = []

        def spy(o, width):
            calls.append((o.vector, width))
            return oriented_tree_colouring(o, width)
        monkeypatch.setattr(orientations, "oriented_tree_colouring", spy)
        found = 0
        for t, want in zip(trees(8), wants):
            r = od_extremes(t)
            assert calls == [], encode_graph6(t)
            for read, o, c in ((lambda: r.colouring_min, r.witness_min, want[0]),
                               (lambda: r.colouring_max, r.witness_max, want[1])):
                assert read() == c and read() == c, encode_graph6(t)
                assert len(calls) == (0 if is_rigid(o) else 1), encode_graph6(t)
                found += len(calls)
                calls.clear()
        assert found > len(trees(8))

    def test_missing_tree_colouring_raises(self, monkeypatch):
        t = star_graph(3)
        monkeypatch.setattr(orientations, "oriented_tree_colouring",
                            lambda o, width: None)
        r = od_extremes(t)
        with pytest.raises(AssertionError, match=encode_graph6(t)):
            r.colouring_max
        with pytest.raises(AssertionError, match=encode_graph6(t)):
            od_plus(t)

    def test_tree_sweep_makes_no_search(self, monkeypatch):
        calls = []

        def spy(x, **kwargs):
            calls.append(x)
            return dprime(x, **kwargs)
        monkeypatch.setattr(orientations, "dprime", spy)
        for t in trees(8):
            od_extremes(t)
        assert calls == []


@st.composite
def edge_actions(draw, m=None):
    m = draw(st.integers(0, 12)) if m is None else m
    perm = draw(st.permutations(range(m)))
    flips = draw(st.integers(0, (1 << m) - 1))
    return m, tuple(perm), flips


class TestActionTables:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(edge_actions())
    @example((11, (3, 10, 0, 7, 1, 9, 2, 8, 4, 6, 5), 0b10110011101))
    @example((12, (11, 4, 0, 9, 2, 7, 1, 10, 5, 3, 8, 6), 0b100101101110))
    def test_tables_match_bitwise_action(self, action):
        m, perm, flips = action
        lo_bits, [(lo, hi)] = _action_tables(m, [(perm, flips)])
        assert lo_bits == (m + 1) // 2
        assert len(lo) == 1 << lo_bits and len(hi) == 1 << (m - lo_bits)
        for shift, half in ((0, lo), (lo_bits, hi)):
            for v, w in enumerate(half):
                want = 0
                for i in range(len(half).bit_length() - 1):
                    j = i + shift
                    want |= ((v >> i & 1) ^ (flips >> j & 1)) << perm[j]
                assert w == want, (m, perm, flips, shift, v)

    def test_lookup_permutes_the_vectors(self):
        # the halves differ in width exactly when m is odd; the reversal
        # with every bit flipped is an involution, so each orbit is a
        # vector and its image, and the walker hands out the lesser
        for m in (11, 12):
            perm = tuple(reversed(range(m)))
            flips = (1 << m) - 1

            def image(v):
                return sum(((v >> i & 1) ^ 1) << perm[i] for i in range(m))
            want = [(v, 1 + (image(v) != v)) for v in range(1 << m)
                    if v <= image(v)]
            assert list(orbit_minima(m, [(perm, flips)])) == want

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.lists(edge_actions(6), max_size=3))
    def test_orbits_are_closures(self, actions):
        # each orbit is everything its least vector reaches under the
        # actions, the orbits partition the vectors, and come ascending
        def image(v, perm, flips):
            return sum(((v >> i & 1) ^ (flips >> i & 1)) << perm[i]
                       for i in range(len(perm)))
        got = list(orbit_minima(6, [(perm, flips) for _, perm, flips in actions]))
        left = set(range(1 << 6))
        for v, size in got:
            orbit = {v}
            frontier = [v]
            while frontier:
                u = frontier.pop()
                for _, perm, flips in actions:
                    w = image(u, perm, flips)
                    if w not in orbit:
                        orbit.add(w)
                        frontier.append(w)
            assert min(orbit) == v and len(orbit) == size and orbit <= left
            left -= orbit
        assert not left and [v for v, _ in got] == sorted(v for v, _ in got)
