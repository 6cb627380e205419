"""Closed-form distinguishing values for unbalanced complete bipartite graphs.

For K_{m,n} with 2 <= m < n the distinguishing index is governed by the
radix r with (r-1)^m < n <= r^m: writing t for the least power of r
reaching m, the index is r when n <= r^m - t - 1, r + 1 when
n >= r^m - t + 1, and at n = r^m - t either value can occur.  The
boundary case is settled here by direct computation whenever the graph
is small enough to sweep.

The minimum over orientations follows by halving: with m < n no
automorphism swaps the two sides, so both classes are fixed setwise and
the layered-orientation argument gives exactly the ceiling of half the
undirected value, branch by branch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distinguishing import dprime
from .graphs import Graph, bipartition
from .smallgraphs import complete_bipartite_graph

EXACT = "Exact"
BOUNDARY = "Boundary"
RESOLVED = "Resolved"

# Largest edge count m*n for which the boundary case falls back to a
# direct computation instead of reporting the two candidate values.
DEFAULT_EXACT_CAP = 20


@dataclass(frozen=True)
class Prediction:
    """Predicted value, either pinned down or bracketed by two candidates."""

    m: int
    n: int
    r: int
    kind: str
    value: int | None = None
    low: int | None = None
    high: int | None = None
    via: str | None = None

    def to_json(self) -> dict:
        out: dict = {"m": self.m, "n": self.n, "r": self.r, "kind": self.kind}
        if self.kind == BOUNDARY:
            out["low"] = self.low
            out["high"] = self.high
        else:
            out["value"] = self.value
        if self.via is not None:
            out["via"] = self.via
        return out


def _radix(m: int, n: int) -> int:
    r = 2
    while r**m < n:
        r += 1
    return r


def _ceil_log(r: int, m: int) -> int:
    t = 0
    while r**t < m:
        t += 1
    return t


def _validate(m: int, n: int) -> None:
    if not 2 <= m < n:
        raise ValueError("complete bipartite predictions need 2 <= m < n")


def dprime_kmn(m: int, n: int, *, exact_cap: int = DEFAULT_EXACT_CAP) -> Prediction:
    """Distinguishing index of K_{m,n} for 2 <= m < n, without sweeping.

    Away from the single boundary size the value is exact.  On the
    boundary the result is resolved by building the graph when it has at
    most exact_cap edges, and otherwise reports both candidates.
    """
    _validate(m, n)
    r = _radix(m, n)
    t = _ceil_log(r, m)
    pivot = r**m - t
    if n <= pivot - 1:
        return Prediction(m, n, r, EXACT, value=r)
    if n >= pivot + 1:
        return Prediction(m, n, r, EXACT, value=r + 1)
    if m * n <= exact_cap:
        exact = dprime(complete_bipartite_graph(m, n)).value
        return Prediction(m, n, r, RESOLVED, value=exact, via="exact-fallback")
    return Prediction(m, n, r, BOUNDARY, low=r, high=r + 1)


def od_minus_kmn(m: int, n: int, *, exact_cap: int = DEFAULT_EXACT_CAP) -> Prediction:
    """Least distinguishing index over all orientations of K_{m,n}."""
    base = dprime_kmn(m, n, exact_cap=exact_cap)
    if base.kind != BOUNDARY:
        half = -(-base.value // 2)
        return Prediction(m, n, base.r, base.kind, value=half, via=base.via)
    low = -(-base.low // 2)
    high = -(-base.high // 2)
    if low == high:
        return Prediction(m, n, base.r, EXACT, value=low)
    return Prediction(m, n, base.r, BOUNDARY, low=low, high=high)


def as_complete_bipartite(g: Graph) -> tuple[int, int] | None:
    """Return (m, n) with m <= n when g is complete bipartite, else None."""
    parts = bipartition(g)
    if parts is None:
        return None
    x, y = parts
    if any(not g.has_edge(u, v) for u in x for v in y):
        return None
    return min(len(x), len(y)), max(len(x), len(y))
