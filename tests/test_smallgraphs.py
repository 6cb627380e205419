"""Corpus generators: pinned counts, membership, and dedup."""

import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from disorient import (
    are_isomorphic,
    bipartition,
    clawfree_graphs,
    complete_bipartite_graph,
    connected_bipartite_graphs,
    connected_graphs,
    cycle_graph,
    double_star,
    encode_graph6,
    is_claw_free,
    is_connected,
    is_tree,
    path_graph,
    star_graph,
    trees,
)
from disorient.graphs import Graph
from disorient.groups import orbit_minima
from disorient.search import canonical_form, code_rows, strong_generators
from disorient.smallgraphs import (_bucket_key, _earlier_parent,
                                   _extends_clawfree, _grow)

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11,
               8: 23, 9: 47, 10: 106, 11: 235}
BIPARTITE_COUNTS = {2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44}
CLAWFREE_COUNTS = {6: 50, 7: 191, 8: 881}

# SHA-256 of the newline-joined graph6 strings, in corpus order, of
# connected_graphs(1..7) and clawfree_graphs(1..8): pins representatives
# and order, not only counts.
CONNECTED_DIGEST = "6d5f81e33ba2cc7413057fd6e2859fcec8c01014cf5a0e68ca73fa66484be57e"
CLAWFREE_DIGEST = "9129756b0d004c5ba064b7b3d1a657260f4effc585a3022fc6cdc913f4320ded"


def _digest(corpora) -> str:
    text = "\n".join(encode_graph6(g) for corpus in corpora for g in corpus)
    return hashlib.sha256(text.encode()).hexdigest()


def _bits(g: Graph) -> list[int]:
    return [sum(1 << u for u in nbrs) for nbrs in oracles.neighbours(g)]


def _child(g: Graph, mask: int) -> Graph:
    extra = [(v, g.n) for v in range(g.n) if mask >> v & 1]
    return Graph.from_edges(g.n + 1, list(g.edges) + extra)


def _least_masks(g: Graph) -> list[int]:
    """Non-empty vertex sets of g, as bitmasks, least in their orbit."""
    gens = strong_generators(code_rows(g))[0]
    return [v for v, _ in orbit_minima(g.n, [(gen, 0) for gen in gens]) if v]


def _reference_grow(parents, keep=None) -> tuple[Graph, ...]:
    """Unscreened growth: every orbit-least mask, deduplicated by form."""
    seen = set()
    out = []
    for g in parents:
        bits = _bits(g)
        for mask in _least_masks(g):
            if keep is not None and not keep(bits, mask):
                continue
            h = _child(g, mask)
            form = canonical_form(code_rows(h))
            if form not in seen:
                seen.add(form)
                out.append(h)
    return tuple(sorted(out, key=lambda h: (h.m, encode_graph6(h))))


class TestCounts:
    def test_connected(self):
        for n, c in CONNECTED_COUNTS.items():
            assert len(connected_graphs(n)) == c, n

    def test_trees(self):
        for n, c in TREE_COUNTS.items():
            assert len(trees(n)) == c, n

    def test_bipartite(self):
        for n, c in BIPARTITE_COUNTS.items():
            assert len(connected_bipartite_graphs(n)) == c, n

    def test_clawfree(self):
        for n, c in CLAWFREE_COUNTS.items():
            assert len(clawfree_graphs(n)) == c, n

    def test_clawfree_edge_bound(self):
        assert len([g for g in clawfree_graphs(7) if g.m <= 16]) == 175
        assert len([g for g in clawfree_graphs(8) if g.m <= 16]) == 442


class TestMembership:
    def test_connected_flags(self):
        for n in range(1, 7):
            for g in connected_graphs(n):
                assert g.n == n and is_connected(g)

    def test_bipartite_flags(self):
        for n in range(2, 7):
            corpus = connected_bipartite_graphs(n)
            assert all(bipartition(g) is not None for g in corpus)
            by_code = {encode_graph6(g) for g in connected_graphs(n)}
            assert {encode_graph6(g) for g in corpus} <= by_code

    def test_tree_flags(self):
        for n in range(1, 9):
            for t in trees(n):
                assert is_tree(t) and t.n == n

    def test_clawfree_flags(self):
        for g in clawfree_graphs(6):
            assert is_connected(g) and is_claw_free(g)


class TestDedup:
    def test_no_duplicates_small(self):
        for n in range(1, 6):
            corpus = connected_graphs(n)
            for g, h in combinations(corpus, 2):
                assert not are_isomorphic(g, h)

    def test_tree_no_duplicates(self):
        for n in range(1, 8):
            for g, h in combinations(trees(n), 2):
                assert not are_isomorphic(g, h)

    def test_codes_unique(self):
        # graph6 strings are a cheap duplicate alarm for the larger levels
        for n in (6, 7):
            corpus = connected_graphs(n)
            assert len({encode_graph6(g) for g in corpus}) == len(corpus)

    def test_canonical_order(self):
        for corpus in (connected_graphs(5), trees(7), clawfree_graphs(6)):
            keys = [(g.m, encode_graph6(g)) for g in corpus]
            assert keys == sorted(keys)

    def test_corpus_digests(self):
        assert _digest(connected_graphs(n) for n in range(1, 8)) == CONNECTED_DIGEST
        assert _digest(clawfree_graphs(n) for n in range(1, 9)) == CLAWFREE_DIGEST

    def test_cached(self):
        assert connected_graphs(5) is connected_graphs(5)


class TestGrowth:
    def test_claw_check_through_new_vertex(self):
        for n in range(1, 7):
            for g in clawfree_graphs(n):
                bits = _bits(g)
                for mask in range(1 << n):
                    assert _extends_clawfree(bits, mask) == \
                        is_claw_free(_child(g, mask)), (g, mask)

    def test_least_masks_one_per_orbit(self):
        # a vertex map acts on vertex sets as an action with no flips
        for n in range(1, 6):
            for g in connected_graphs(n):
                images = oracles.brute_automorphism_images(g)
                orbits = {}
                for mask in range(1 << n):
                    orbit = {sum(1 << img[v] for v in range(n) if mask >> v & 1)
                             for img in images}
                    orbits[min(orbit)] = len(orbit)
                gens = strong_generators(code_rows(g))[0]
                assert list(orbit_minima(n, [(gen, 0) for gen in gens])) == \
                    sorted(orbits.items()), g


class TestScreens:
    """_grow's duplicate screens against unscreened growth."""

    @staticmethod
    def _g6(gs):
        return [encode_graph6(g) for g in gs]

    def test_connected_growth_matches_reference(self):
        for n in range(1, 7):
            parents = connected_graphs(n)
            assert self._g6(_grow(parents)) == \
                self._g6(_reference_grow(parents)), n

    def test_clawfree_growth_matches_reference(self):
        parents = clawfree_graphs(7)
        assert self._g6(_grow(parents, keep=_extends_clawfree)) == \
            self._g6(_reference_grow(parents, keep=_extends_clawfree))

    def test_rejected_children_have_a_parent_with_fewer_edges(self):
        for n in range(1, 7):
            parents = connected_graphs(n)
            forms_below = {}  # parent edge count -> forms of its children
            for g in parents:
                forms = forms_below.setdefault(g.m, set())
                forms.update(canonical_form(code_rows(_child(g, mask)))
                             for mask in range(1, 1 << n))
            rejected = 0
            for g in parents:
                for mask in _least_masks(g):
                    h = _child(g, mask)
                    if not _earlier_parent(_bits(h)):
                        continue
                    rejected += 1
                    form = canonical_form(code_rows(h))
                    assert any(form in forms for m, forms in forms_below.items()
                               if m < g.m), (g, mask)
            assert rejected or n < 3, n

    def test_earlier_parent_cases(self):
        # C4 plus a pendant at 0: removing 2 leaves the star K_{1,3}, with
        # fewer edges than C4, and 2's degree 2 is above the new vertex's
        assert _earlier_parent(_bits(_child(cycle_graph(4), 0b0001)))
        # K_{1,3} grown from P3 at its middle: the centre's degree 3 is
        # above the new vertex's, but it is a cut vertex
        assert not _earlier_parent(_bits(_child(path_graph(3), 0b010)))
        # C4 grown from P4 by joining both ends: every vertex is non-cut,
        # but none has degree above the new vertex's 2
        assert not _earlier_parent(_bits(_child(path_graph(4), 0b1001)))

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1),
        st.permutations(range(n)))))
    def test_bucket_key_ignores_labelling(self, case):
        n, chosen, perm = case
        pairs = list(combinations(range(n), 2))
        g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
        assert _bucket_key(_bits(g)) == _bucket_key(_bits(g.relabel(perm)))


class TestCompleteness:
    def test_every_small_graph_appears(self):
        # independent spot check: every connected 4-vertex edge subset
        # is isomorphic to a corpus member
        corpus = connected_graphs(4)
        all_edges = list(combinations(range(4), 2))
        hits = 0
        for k in range(3, 7):
            for chosen in combinations(all_edges, k):
                g = Graph.from_edges(4, chosen)
                if not is_connected(g):
                    continue
                hits += 1
                assert any(are_isomorphic(g, r) for r in corpus)
        assert hits == 38  # labelled connected graphs on 4 vertices


class TestIsomorphism:
    def test_positive(self):
        g = cycle_graph(5)
        h = g.relabel([2, 4, 1, 3, 0])
        assert are_isomorphic(g, h)

    def test_negative_same_degrees(self):
        assert not are_isomorphic(cycle_graph(6),
                                  Graph.from_edges(6, [(0, 1), (1, 2), (2, 0),
                                                       (3, 4), (4, 5), (5, 3)]))

    def test_negative_different_size(self):
        assert not are_isomorphic(path_graph(3), path_graph(4))


class TestBuilders:
    def test_path(self):
        assert path_graph(3).edges == ((0, 1), (1, 2))

    def test_cycle_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)
        assert cycle_graph(3).m == 3

    def test_star(self):
        g = star_graph(3)
        assert g.edges == ((0, 1), (0, 2), (0, 3))

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(2, 3)
        assert g.n == 5 and g.m == 6
        assert bipartition(g) is not None

    def test_double_star(self):
        g = double_star(1, 2)
        assert g.n == 5
        assert [sum(v in e for e in g.edges) for v in (0, 1)] == [2, 3]
