"""Property-based differential tests of the index and the orientation extremes.

Random connected graphs on at most six vertices and eight edges, under a
random labelling, are checked against brute-force permutation filters:
the index a conjecture scan writes to its cache row, dprime's and the
oracle's, and on at most seven edges the extremes od_extremes gives.
The labelling matters because the Hamiltonian path the scan finds, the
twins the rigidity test sees and the order in which chords are tried
all depend on it.  Runs are derandomised so every run draws the same
examples.
"""

import json
import tempfile
from itertools import combinations
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from disorient import (Corpus, Graph, complete_graph, cycle_graph, dprime,
                       od_extremes, path_graph, scan_conjectures)

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)


@st.composite
def connected(draw, max_m=8):
    """A random tree on 3..6 vertices plus chords, randomly relabelled."""
    n = draw(st.integers(3, 6))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    spare = [e for e in combinations(range(n), 2) if e not in tree]
    chords = draw(st.lists(st.sampled_from(spare), unique=True,
                           max_size=max_m - len(tree)))
    g = Graph.from_edges(n, tree + chords)
    return g.relabel(draw(st.permutations(range(n))))


def _scan_row(g: Graph) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "scan.jsonl"
        report = scan_conjectures(Corpus.from_graphs([g]), cache_path=cache)
        assert report.passed == 1
        (row,) = map(json.loads, cache.read_text().splitlines())
    return row


@SETTINGS
@given(connected())
@example(complete_graph(5))  # the path's reversal, then a chord
@example(cycle_graph(5))  # no chord distinguishes: the search decides
@example(path_graph(5).relabel((2, 0, 4, 1, 3)))  # no chord to try
def test_scan_index_equals_the_oracle(g):
    want = oracles.brute_dprime(g)
    assert dprime(g).value == want
    assert _scan_row(g)["dprime"] == want


@SETTINGS
@given(connected(max_m=7))
@example(cycle_graph(4))
def test_extremes_equal_the_oracle(g):
    res = od_extremes(g)
    assert (res.od_minus, res.od_plus) == oracles.brute_od_extremes(g)
