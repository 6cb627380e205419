"""Corpus generators: pinned counts, membership, and dedup."""

from itertools import combinations

import pytest

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
from disorient.search import graph_codes, strong_generators
from disorient.smallgraphs import _extends_clawfree, _least_masks

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11,
               8: 23, 9: 47, 10: 106, 11: 235}
BIPARTITE_COUNTS = {2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44}
CLAWFREE_COUNTS = {6: 50, 7: 191, 8: 881}


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
        assert len(clawfree_graphs(7, 16)) == 175
        assert len(clawfree_graphs(8, 16)) == 442


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

    def test_clawfree_edge_filter_is_subset(self):
        full = {encode_graph6(g) for g in clawfree_graphs(8)}
        capped = clawfree_graphs(8, 16)
        assert all(g.m <= 16 for g in capped)
        assert {encode_graph6(g) for g in capped} <= full


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

    def test_cached(self):
        assert connected_graphs(5) is connected_graphs(5)


class TestGrowth:
    def test_claw_check_through_new_vertex(self):
        for n in range(1, 7):
            for g in clawfree_graphs(n):
                bits = [sum(1 << u for u in g.adj[v]) for v in range(n)]
                for mask in range(1 << n):
                    extra = [(v, n) for v in range(n) if mask >> v & 1]
                    h = Graph.from_edges(n + 1, list(g.edges) + extra)
                    assert _extends_clawfree(bits, mask) == is_claw_free(h), \
                        (g, mask)

    def test_least_masks_one_per_orbit(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                images = oracles.brute_automorphism_images(g)
                least = {min(sum(1 << img[v] for v in range(n) if mask >> v & 1)
                             for img in images)
                         for mask in range(1, 1 << n)}
                gens = strong_generators(graph_codes(g))[0]
                assert _least_masks(n, gens) == sorted(least), g


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
        assert g.degree(0) == 2 and g.degree(1) == 3
