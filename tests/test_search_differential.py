"""Property-based differential tests of the search kernel against the oracles.

Random graphs on at most six vertices, each with a random orientation or
edge colouring, are checked against brute-force permutation filters:
the maps find_maps yields, in order, with and without a pinned vertex,
and the generators and group order from strong_generators.  On up to
seven vertices, the code rows must hold each edge's or arc's code at
both of its ends, and refinement started from the uncoloured labels must
reach the cells the unit partition gives.  Runs are derandomised so
every run draws the same examples.  Twin classes are checked
exhaustively on small corpora against a grouping built from the edges.
"""

from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from disorient import (Graph, Orientation, are_isomorphic, connected_graphs,
                       cycle_graph, enumerate_orientations)
from disorient import search
from disorient.search import (code_rows, equitable_labels, find_maps,
                              strong_generators, twin_classes)

MAX_N = 6
SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)


@st.composite
def graphs(draw, min_n=1, max_n=MAX_N):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))


@st.composite
def structures(draw, max_n=MAX_N):
    """(structure, colours): a graph or orientation, colours None or per edge."""
    g = draw(graphs(max_n=max_n))
    x = g
    if draw(st.booleans()):
        x = Orientation(g, draw(st.integers(0, (1 << g.m) - 1)))
    colours = None
    if draw(st.booleans()):
        colours = tuple(draw(st.lists(st.integers(1, 3), min_size=g.m,
                                      max_size=g.m)))
    return x, colours


@st.composite
def switched_pairs(draw):
    """A graph and a 2-switch of it: ab, cd -> ad, cb, same degrees."""
    g = draw(graphs(min_n=4))
    h = g
    switches = [(e, f) for e, f in combinations(g.edges, 2)
                if len(set(e + f)) == 4]
    if switches:
        e, f = draw(st.sampled_from(switches))
        (a, b), (c, d) = e, f[::-1] if draw(st.booleans()) else f
        if not g.has_edge(a, d) and not g.has_edge(c, b):
            rest = [x for x in g.edges if x not in (e, f)]
            h = Graph.from_edges(g.n, rest + [(a, d), (c, b)])
    return g, h


def _expected(x, colours):
    if colours is None:
        return oracles.brute_automorphism_images(x)
    return oracles.brute_colour_preserving_images(x, colours)


@SETTINGS
@given(structures())
def test_maps_match_oracle_in_order(case):
    x, colours = case
    rows = code_rows(x, colours)
    assert list(find_maps(rows)) == _expected(x, colours)


@SETTINGS
@given(structures(), st.data())
def test_pinned_maps_match_oracle(case, data):
    x, colours = case
    rows = code_rows(x, colours)
    v = data.draw(st.integers(0, len(rows) - 1))
    w = data.draw(st.integers(0, len(rows) - 1))
    want = [img for img in _expected(x, colours) if img[v] == w]
    assert list(find_maps(rows, fixed=((v, w),))) == want


@SETTINGS
@given(structures())
def test_strong_generators_match_oracle(case):
    x, colours = case
    images = _expected(x, colours)
    gens, order = strong_generators(code_rows(x, colours))
    assert order == len(images)
    assert set(gens) <= set(images)


def _cells(labels):
    cells = {}
    for v, lab in enumerate(labels):
        cells.setdefault(lab, []).append(v)
    return sorted(cells.values())


@SETTINGS
@given(structures(max_n=7))
def test_rows_are_the_matrix_entries(case):
    x, colours = case
    oriented = isinstance(x, Orientation)
    want = [[] for _ in range(x.base.n if oriented else x.n)]
    for i, (u, v) in enumerate(x.arcs if oriented else x.edges):
        c = 1 if colours is None else colours[i]
        want[u].append((v, c))
        want[v].append((u, -c if oriented else c))
    assert [sorted(row) for row in code_rows(x, colours)] == \
        [sorted(row) for row in want]


@SETTINGS
@given(structures(max_n=7))
def test_refinement_from_plain_labels_reaches_the_same_cells(case):
    # a partition equitable with colours is equitable without them, so
    # starting from the uncoloured labels loses no split
    x, colours = case
    plain = equitable_labels(code_rows(x))
    unit = equitable_labels(code_rows(x, colours))
    assert _cells(equitable_labels(code_rows(x, colours), plain)) == _cells(unit)
    assert list(find_maps(code_rows(x, colours), unit)) == _expected(x, colours)


def test_strong_generators_refine_once(monkeypatch):
    # one refinement of the rows, however many searches reuse it
    rows = code_rows(cycle_graph(6))
    refine, calls = search.equitable_labels, []

    def spy(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(search, "equitable_labels", spy)
    gens, order = strong_generators(rows)
    assert order == 12
    assert len(gens) >= 2
    assert len(calls) == 1


def test_matrix_changed_in_place_is_refined_again():
    # nothing is cached per input: the maps follow the rows' current entries
    g = cycle_graph(5)
    colours = (2,) + (1,) * (g.m - 1)  # edge (0, 1) set apart
    rows = code_rows(g, colours)
    assert list(find_maps(rows)) == _expected(g, colours)
    rows[0][rows[0].index((1, 2))] = (1, 1)
    rows[1][rows[1].index((0, 2))] = (0, 1)
    assert list(find_maps(rows)) == _expected(g, None)


@SETTINGS
@given(graphs(), st.data())
def test_relabelled_graph_is_isomorphic(g, data):
    p = data.draw(st.permutations(range(g.n)))
    assert are_isomorphic(g, g.relabel(p))


@SETTINGS
@given(switched_pairs())
@example((cycle_graph(6),
          Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])))
def test_isomorphism_matches_oracle_on_equal_degrees(pair):
    g, h = pair
    assert sorted(sum(v in e for e in g.edges) for v in range(g.n)) == \
        sorted(sum(v in e for e in h.edges) for v in range(h.n))
    assert are_isomorphic(g, h) == oracles.brute_isomorphic(g, h)


def _brute_twins(x) -> list[list[int]]:
    """Classes of two or more vertices with equal out-sets and equal
    in-sets, an edge counting as both arcs, by their least members."""
    if isinstance(x, Orientation):
        n, arcs = x.base.n, x.arcs
    else:
        n, arcs = x.n, [a for u, v in x.edges for a in ((u, v), (v, u))]
    key = [(frozenset(h for t, h in arcs if t == v),
            frozenset(t for t, h in arcs if h == v)) for v in range(n)]
    classes = [[w for w in range(n) if key[w] == key[v]] for v in range(n)]
    return [c for v, c in enumerate(classes) if len(c) > 1 and c[0] == v]


def test_twin_classes_match_the_edges():
    classes = 0
    for n in range(1, 7):
        for g in connected_graphs(n):
            xs = [g] + (enumerate_orientations(g) if n <= 5 else [])
            for x in xs:
                want = _brute_twins(x)
                assert twin_classes(code_rows(x)) == want, (g.edges, x)
                classes += len(want)
    assert classes > 0
