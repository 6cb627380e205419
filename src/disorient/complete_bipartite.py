"""Closed-form distinguishing values for unbalanced complete bipartite graphs.

For K_{m,n} with 2 <= m < n an r-colouring is an m x n matrix, and it
distinguishes exactly when its n columns are distinct and no
non-identity permutation of the m rows maps the set of columns onto
itself.  Writing r for the least radix with n <= r^m and t for the least
power of r reaching m, the index is r when n <= r^m - t - 1 and r + 1
when n >= r^m - t + 1.  At the pivot n = r^m - t the columns leave out
exactly t vectors of [r]^m, and a set of vectors and its complement have
the same stabiliser; so the index is r exactly when those t vectors can
be chosen with no symmetry, that is when t = 1 or K_{t,m} has index at
most r (Imrich, Jerebic and Klavzar 2008; Fisher and Isaak 2008).

The minimum over orientations follows by halving: with m < n no
automorphism swaps the two sides, so both classes are fixed setwise and
the layered-orientation argument gives exactly the ceiling of half the
undirected value.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .graphs import Graph, bipartition


@dataclass(frozen=True)
class Prediction:
    """Index of K_{m,n}, with the radix r that governs it."""

    m: int
    n: int
    r: int
    value: int

    def to_json(self) -> dict:
        return asdict(self)


def _radix(m: int, n: int) -> int:
    """Least r >= 2 with r^m >= n.

    r = 2 exactly when n - 1 < 2^m, which bit lengths tell with no
    power built.  Otherwise 2^m < n, and r comes by doubling and then
    bisection.
    """
    if (n - 1).bit_length() <= m:
        return 2
    low, high = 2, 4
    while high**m < n:
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if mid**m < n:
            low = mid
        else:
            high = mid
    return high


def _ceil_log(r: int, m: int) -> int:
    t = 0
    while r**t < m:
        t += 1
    return t


def dprime_kmn(m: int, n: int) -> Prediction:
    """Distinguishing index of K_{m,n} for 2 <= m < n, without sweeping."""
    if not 2 <= m < n:
        raise ValueError("complete bipartite predictions need 2 <= m < n")
    r = _radix(m, n)
    t = _ceil_log(r, m)
    if r == 2 and (n + t).bit_length() <= m:  # n < 2^m - t, with no power built
        return Prediction(m, n, r, r)
    pivot = r**m - t
    if n < pivot or (n == pivot and (t == 1 or dprime_kmn(t, m).value <= r)):
        return Prediction(m, n, r, r)
    return Prediction(m, n, r, r + 1)


def od_minus_kmn(m: int, n: int) -> Prediction:
    """Least distinguishing index over all orientations of K_{m,n}."""
    base = dprime_kmn(m, n)
    return Prediction(m, n, base.r, -(-base.value // 2))


def as_complete_bipartite(g: Graph) -> tuple[int, int] | None:
    """Return (m, n) with m <= n when g is complete bipartite, else None."""
    parts = bipartition(g)
    if parts is None:
        return None
    x, y = parts
    if any(not g.has_edge(u, v) for u in x for v in y):
        return None
    return min(len(x), len(y)), max(len(x), len(y))
