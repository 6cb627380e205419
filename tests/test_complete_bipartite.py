"""Closed-form predictions for complete bipartite graphs."""

from math import comb

import pytest

import oracles
from disorient import (
    Prediction,
    as_complete_bipartite,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    dprime_kmn,
    od_minus_kmn,
    path_graph,
)

# (m, n) -> (index, min over orientations, max over orientations),
# all recomputed by the exhaustive reference sweep
BRUTE_TABLE = {
    (2, 3): (2, 1, 2),
    (2, 4): (3, 2, 3),
    (2, 5): (3, 2, 3),
    (2, 6): (3, 2, 3),
    (3, 4): (2, 1, 2),
}

# pivot sizes n = r^m - t, each with (t, index): each is settled through
# the far smaller K_{t,m}, that is K_{2,4}, K_{3,5} and K_{3,7}
PIVOTS = {(4, 14): (2, 3), (5, 29): (3, 2), (7, 125): (3, 3)}


def _oracle_pairs():
    """Every 2 <= m < n with r^m <= 32 and at most 20 000 column sets."""
    for m in range(2, 6):
        for n in range(m + 1, 33):
            r = dprime_kmn(m, n).r
            if r ** m <= 32 and comb(r ** m, n) <= 20_000:
                yield m, n


class TestDprimeKmn:
    def test_above_pivot(self):
        p = dprime_kmn(2, 4)
        assert (p.value, p.r) == (3, 2)

    def test_below_pivot(self):
        p = dprime_kmn(3, 5)
        assert (p.value, p.r) == (2, 2)

    def test_boundary_resolved(self):
        # K_{2,3} sits on the pivot 2^2 - 1 with t = 1
        p = dprime_kmn(2, 3)
        assert (p.value, p.r) == (2, 2)

    def test_boundary_settled_past_search_size(self):
        for (m, n), (t, value) in PIVOTS.items():
            p = dprime_kmn(m, n)
            assert p.r ** (t - 1) < m <= p.r ** t, (m, n)
            assert (n, p.value) == (p.r ** m - t, value), (m, n)

    def test_radix_bracketing(self):
        for m in range(2, 6):
            for n in range(m + 1, 40):
                r = dprime_kmn(m, n).r
                assert (r - 1) ** m < n <= r ** m

    def test_huge_sizes(self):
        p = dprime_kmn(2, 10**15)
        assert p.r == 31_622_777
        q = dprime_kmn(3, 10**18)
        assert (q.r, q.value) == (10**6, 10**6 + 1)

    def test_radix_two_builds_no_power(self):
        # bit lengths settle r = 2 and n below the pivot; 2^m at this m
        # would take 125 MB, twice
        assert dprime_kmn(10**9, 10**9 + 1) == Prediction(10**9, 10**9 + 1, 2, 2)

    def test_domain(self):
        for m, n in [(1, 3), (3, 3), (4, 2)]:
            with pytest.raises(ValueError):
                dprime_kmn(m, n)

    def test_vs_brute_table(self):
        for (m, n), (d, _, _) in BRUTE_TABLE.items():
            assert dprime_kmn(m, n).value == d, (m, n)

    def test_fresh_brute_agreement(self):
        for (m, n) in BRUTE_TABLE:
            if m * n > 10:  # keep the recheck cheap; larger cases are frozen
                continue
            g = complete_bipartite_graph(m, n)
            assert oracles.brute_dprime(g) == BRUTE_TABLE[(m, n)][0]

    def test_vs_column_set_oracle(self):
        pairs = list(_oracle_pairs())
        assert len(pairs) == 45
        for m, n in pairs:
            assert dprime_kmn(m, n).value == oracles.brute_kmn_index(m, n), \
                (m, n)


class TestColumnSetOracle:
    def test_vs_brute_dprime(self):
        for m, n in [(2, 3), (2, 4)]:
            g = complete_bipartite_graph(m, n)
            assert oracles.brute_kmn_index(m, n) == oracles.brute_dprime(g)

    def test_vs_brute_table(self):
        for (m, n), (d, _, _) in BRUTE_TABLE.items():
            assert oracles.brute_kmn_index(m, n) == d, (m, n)


class TestOdMinusKmn:
    def test_examples(self):
        assert od_minus_kmn(2, 4).value == 2
        assert od_minus_kmn(3, 5).value == 1
        assert od_minus_kmn(2, 3).value == 1

    def test_boundary_halves_can_collapse(self):
        # K_{2,8} is on the pivot 3^2 - 1: candidates 3 and 4 halve alike
        assert od_minus_kmn(2, 8).value == 2

    def test_vs_brute_table(self):
        for (m, n), (_, lo, _) in BRUTE_TABLE.items():
            assert od_minus_kmn(m, n).value == lo, (m, n)

    def test_halving_relation(self):
        pairs = [(m, n) for m in range(2, 5) for n in range(m + 1, 12)]
        for m, n in pairs + list(PIVOTS):
            d = dprime_kmn(m, n)
            o = od_minus_kmn(m, n)
            assert (o.r, o.value) == (d.r, -(-d.value // 2)), (m, n)


class TestToJson:
    def test_exact_schema(self):
        assert dprime_kmn(2, 4).to_json() == {
            "m": 2, "n": 4, "r": 2, "value": 3}

    def test_resolved_schema(self):
        assert dprime_kmn(2, 3).to_json() == {
            "m": 2, "n": 3, "r": 2, "value": 2}

    def test_boundary_schema(self):
        # a pivot too big to search has the same schema as any other size
        assert dprime_kmn(4, 14).to_json() == {
            "m": 4, "n": 14, "r": 2, "value": 3}


class TestShapeDetection:
    def test_positive(self):
        assert as_complete_bipartite(complete_bipartite_graph(2, 3)) == (2, 3)
        assert as_complete_bipartite(cycle_graph(4)) == (2, 2)
        assert as_complete_bipartite(path_graph(2)) == (1, 1)

    def test_negative(self):
        assert as_complete_bipartite(path_graph(4)) is None
        assert as_complete_bipartite(complete_graph(3)) is None
