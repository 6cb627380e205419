"""Named small graphs and exhaustive corpora of graphs up to isomorphism.

Corpora are grown by vertex addition: every connected graph on n+1
vertices arises from a connected graph on n vertices by adding one
vertex joined to a non-empty neighbour set, because every connected
graph has a vertex whose removal keeps it connected.  Claw-freeness is
closed under induced subgraphs, so the same chain restricted to
claw-free graphs stays complete.  Trees are grown by leaf attachment
and deduplicated by their canonical centre-rooted encoding.

All generators return tuples in a deterministic order (edge count, then
graph6 string) and cache their results per process.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .graphs import (Graph, bipartition, encode_graph6, is_claw_free,
                     rooted_shapes, tree_center)
from .search import codes_for, find_maps


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def star_graph(leaves: int) -> Graph:
    """Centre 0 joined to vertices 1..leaves."""
    return Graph.from_edges(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """Classes 0..m-1 and m..m+n-1."""
    return Graph.from_edges(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def double_star(a: int, b: int) -> Graph:
    """Adjacent centres 0 and 1 carrying a and b leaves."""
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return Graph.from_edges(2 + a + b, edges)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if _iso_key(g) != _iso_key(h):
        return False
    return next(iter(find_maps(codes_for(g), codes_for(h))), None) is not None


def _iso_key(g: Graph):
    degs = tuple(sorted(g.degree(v) for v in range(g.n)))
    around = tuple(sorted(
        tuple(sorted(g.degree(w) for w in g.adj[v])) for v in range(g.n)))
    return g.n, g.m, degs, around


def _grow(parents, keep=None) -> tuple[Graph, ...]:
    """All one-vertex extensions of the parent graphs, up to isomorphism."""
    buckets: dict[tuple, list[Graph]] = {}
    out: list[Graph] = []
    for g in parents:
        for mask in range(1, 1 << g.n):
            extra = [(v, g.n) for v in range(g.n) if mask >> v & 1]
            h = Graph.from_edges(g.n + 1, list(g.edges) + extra)
            if keep is not None and not keep(h):
                continue
            bucket = buckets.setdefault(_iso_key(h), [])
            if any(are_isomorphic(h, r) for r in bucket):
                continue
            bucket.append(h)
            out.append(h)
    return _canonical_order(out)


def _canonical_order(gs) -> tuple[Graph, ...]:
    return tuple(sorted(gs, key=lambda g: (g.m, encode_graph6(g))))


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        return (Graph.from_edges(1, ()),)
    return _grow(connected_graphs(n - 1))


@lru_cache(maxsize=None)
def connected_bipartite_graphs(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in connected_graphs(n) if bipartition(g) is not None)


def _tree_code(t: Graph, table: dict[tuple[int, ...], int]):
    c = tree_center(t)
    if c.kind == "vertex":
        v = c.vertices[0]
        return "v", rooted_shapes(t, v, table)[v]
    a, b = c.vertices
    return "e", tuple(sorted((rooted_shapes(t, b, table)[a],
                              rooted_shapes(t, a, table)[b])))


@lru_cache(maxsize=None)
def trees(n: int) -> tuple[Graph, ...]:
    """All trees on n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        return (Graph.from_edges(1, ()),)
    seen = set()
    table: dict[tuple[int, ...], int] = {}
    out = []
    for t in trees(n - 1):
        for v in range(t.n):
            s = Graph.from_edges(t.n + 1, list(t.edges) + [(v, t.n)])
            code = _tree_code(s, table)
            if code in seen:
                continue
            seen.add(code)
            out.append(s)
    return _canonical_order(out)


@lru_cache(maxsize=None)
def clawfree_graphs(n: int, max_edges: int | None = None) -> tuple[Graph, ...]:
    """Connected claw-free graphs on n vertices, one per isomorphism class.

    Up to seven vertices this filters the full connected corpus; beyond
    that the vertex-addition chain itself is restricted to claw-free
    graphs, which stays exhaustive because claw-freeness survives
    deleting a vertex.
    """
    if n <= 7:
        base = tuple(g for g in connected_graphs(n) if is_claw_free(g))
    else:
        base = _grow(clawfree_graphs(n - 1), keep=is_claw_free)
    if max_edges is None:
        return base
    return tuple(g for g in base if g.m <= max_edges)
