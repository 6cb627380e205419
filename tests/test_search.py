"""Canonical forms from the search kernel, and its garbage.

The form must not change under relabelling, for graphs and for the code
rows of oriented or coloured graphs, and two forms must be equal exactly
when the brute-force oracle finds an isomorphism.  Highly symmetric
graphs check that the search prunes by the symmetries it finds.
Property runs are derandomised so every run draws the same examples.
"""

import gc
import random
import time
from itertools import combinations, combinations_with_replacement
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from disorient import (Graph, complete_graph, connected_graphs, cycle_graph,
                       encode_graph6, trees)
from disorient.search import (canonical_form, code_rows, nontrivial_map,
                              strong_generators)

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "data" / "connected_1_7.g6"
SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)


@st.composite
def graphs(draw, max_n=9, n=None):
    if n is None:
        n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))


@st.composite
def coded_rows(draw):
    """Code rows of a random graph, oriented or edge-coloured or both."""
    g = draw(graphs())
    colours = None
    if draw(st.booleans()):
        colours = draw(st.lists(st.integers(1, 3), min_size=g.m, max_size=g.m))
    if draw(st.booleans()):
        rows = [[] for _ in range(g.n)]
        for i, (u, v) in enumerate(g.edges):
            t, h = (u, v) if draw(st.booleans()) else (v, u)
            c = 1 if colours is None else colours[i]
            rows[t].append((h, c))
            rows[h].append((t, -c))
        return rows
    return code_rows(g, colours)


def relabel(rows, image):
    out = [None] * len(rows)
    for v, row in enumerate(rows):
        out[image[v]] = [(image[u], c) for u, c in row]
    return out


def disjoint_union(parts) -> Graph:
    edges, offset = [], 0
    for g in parts:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return Graph.from_edges(offset, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + [(i, i + 5) for i in range(5)])


def rook_graph_3x3() -> Graph:
    """K_3 box K_3: cells of a 3-by-3 board, adjacent in a row or column."""
    return Graph.from_edges(9, [(a, b) for a, b in combinations(range(9), 2)
                                if a // 3 == b // 3 or a % 3 == b % 3])


class TestCanonicalForm:
    @SETTINGS
    @given(graphs(), st.data())
    def test_graph_relabelling_invariant(self, g, data):
        p = data.draw(st.permutations(range(g.n)))
        assert canonical_form(code_rows(g)) == \
            canonical_form(code_rows(g.relabel(p)))

    @SETTINGS
    @given(coded_rows(), st.data())
    def test_code_matrix_relabelling_invariant(self, rows, data):
        p = data.draw(st.permutations(range(len(rows))))
        assert canonical_form(rows) == canonical_form(relabel(rows, p))

    @SETTINGS
    @given(graphs(max_n=6), st.data())
    def test_equal_exactly_when_isomorphic(self, g, data):
        # the second graph is a relabelled copy half the time, so both
        # answers come up often
        h = data.draw(graphs(n=g.n))
        if data.draw(st.booleans()):
            h = g.relabel(data.draw(st.permutations(range(g.n))))
        same = canonical_form(code_rows(g)) == canonical_form(code_rows(h))
        assert same == oracles.brute_isomorphic(g, h)

    def test_disjoint_unions_relabelling_invariant(self):
        # equal components give deep searches with many equal leaves
        rnd = random.Random(0)
        small = [g for n in range(2, 5) for g in connected_graphs(n)]
        for parts in combinations_with_replacement(small, 3):
            g = disjoint_union(parts)
            p = list(range(g.n))
            rnd.shuffle(p)
            assert canonical_form(code_rows(g)) == \
                canonical_form(code_rows(g.relabel(p))), g

    def test_distinct_over_corpora(self):
        for corpus in (connected_graphs(6), trees(10)):
            forms = {canonical_form(code_rows(g)) for g in corpus}
            assert len(forms) == len(corpus)

    def test_codes_and_direction_count(self):
        g = cycle_graph(4)
        assert canonical_form(code_rows(g)) != \
            canonical_form(code_rows(g, (2, 2, 2, 2)))
        path = [[(1, 1)], [(0, -1), (2, 1)], [(1, -1)]]
        out_star = [[(1, 1), (2, 1)], [(0, -1)], [(0, -1)]]
        assert canonical_form(path) != canonical_form(out_star)
        assert canonical_form(path) == canonical_form(relabel(path, (2, 0, 1)))

    def test_symmetric_graphs_are_fast(self):
        for g in (complete_graph(10), petersen_graph(), rook_graph_3x3()):
            start = time.perf_counter()
            canonical_form(code_rows(g))
            assert time.perf_counter() - start < 1.0, g

    def test_corpus_matches_committed_file(self):
        lines = [line for line in CORPUS.read_text().splitlines()
                 if line and not line.startswith("#")]
        built = [encode_graph6(g) for n in range(1, 8)
                 for g in connected_graphs(n)]
        assert built == lines


class TestNoReferenceCycles:
    def test_maps_leave_no_garbage(self):
        rows = code_rows(trees(9)[5])
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                nontrivial_map(rows)
                strong_generators(rows)
            assert gc.collect() == 0
        finally:
            gc.enable()
