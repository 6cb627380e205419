"""Named small graphs and exhaustive corpora of graphs up to isomorphism.

Corpora are grown by vertex addition: every connected graph on n+1
vertices arises from a connected graph on n vertices by adding one
vertex joined to a non-empty neighbour set, because every connected
graph has a vertex whose removal keeps it connected.  Claw-freeness is
closed under induced subgraphs, so the same chain restricted to
claw-free graphs stays complete.  Trees are grown by leaf attachment
and deduplicated by their canonical centre-rooted encoding.

For each parent only neighbour sets least in their orbit under the
parent's automorphism group are tried: two sets in one orbit give
isomorphic graphs, and the least set of the orbit is tried first.  For
claw-free growth a candidate is screened before it is built: the parent
has no claw, so a new claw must use the new vertex.  The kept
representative of each class is its first candidate, in parent order
and then mask order.

Duplicates are rejected by two exact screens, which keep exactly those
first candidates.  Both rely on the parents arriving sorted by edge
count, as every corpus here is.

- Earlier parent (the order-preserving vertex filter of McKay,
  Isomorph-free exhaustive generation, J. Algorithms 1998).  Let the
  child have an old vertex v of degree above the new vertex's, whose
  removal leaves it connected.  Then child - v is connected, claw-free
  if the child is, and has fewer edges than the parent, so it is an
  earlier parent.  Adding v back through the least mask of its orbit
  gives the child's class from that earlier parent, and the claw screen
  accepts it because it is exact.  So the child is not the first
  candidate of its class and is dropped.  Conversely the first
  candidate always passes: the screen would name an earlier parent.
- Lazy canonical forms.  A surviving child is bucketed by a cheap
  isomorphism invariant (the sorted degree and neighbour-degree
  profile).  A child alone in its bucket is new and needs no canonical
  form (search.canonical_form); once a second child reaches the bucket,
  forms are computed for the graph already there and for every later
  arrival, and a child is kept when its form is new.

All generators return tuples in a deterministic order (edge count, then
graph6 string) and cache their results per process.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .graphs import (Graph, bipartition, encode_graph6, hang_centre,
                     has_independent_triple, is_claw_free, neighbour_masks,
                     reach)
from .groups import orbit_minima
from .search import canonical_form, code_rows, strong_generators


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
    return g.n == h.n and \
        canonical_form(code_rows(g)) == canonical_form(code_rows(h))


def _extends_clawfree(bits: list[int], mask: int) -> bool:
    """Whether a new vertex joined to mask keeps a claw-free graph claw-free.

    bits[v] is the neighbour bitmask of v.  A new claw must use the new
    vertex: as its centre, with three pairwise non-adjacent vertices of
    mask as leaves, or as a leaf, when a vertex of mask has two
    non-adjacent neighbours outside mask.
    """
    if has_independent_triple(bits, mask):
        return False
    for a in range(len(bits)):
        if not mask >> a & 1:
            continue
        rest = bits[a] & ~mask
        while rest:
            low = rest & -rest
            rest ^= low
            if rest & ~bits[low.bit_length() - 1]:
                return False
    return True


def _earlier_parent(bits: list[int]) -> bool:
    """Whether the child also grows from a parent with fewer edges.

    bits[v] is the child's neighbour bitmask of v; the new vertex is the
    last.  True when an old vertex of degree above the new vertex's
    leaves the child connected when it is removed.
    """
    k = bits[-1].bit_count()
    last = len(bits) - 1
    for v in range(last):
        if bits[v].bit_count() <= k:
            continue
        rest = ((1 << len(bits)) - 1) ^ (1 << v)
        if reach(bits, last, rest) == rest:
            return True
    return False


def _bucket_key(bits: list[int]) -> int:
    """Hash of the sorted (degree, sorted neighbour degrees) pairs."""
    n = len(bits)
    deg = [b.bit_count() for b in bits]
    return hash(tuple(sorted(
        (deg[v], tuple(sorted(deg[u] for u in range(n) if b >> u & 1)))
        for v, b in enumerate(bits))))


def _grow(parents, keep=None) -> tuple[Graph, ...]:
    """All one-vertex extensions of the parent graphs, up to isomorphism.

    The parents must be sorted by edge count.  Only neighbour sets least
    in their orbit under the parent's group are tried.  keep(bits, mask),
    when given, screens a candidate before it is built: bits holds the
    parent's neighbour bitmasks and mask the new vertex's neighbours.
    The first candidate of each class is kept, as if every candidate's
    canonical form were compared, but two exact screens drop most
    duplicates before any form is computed:

    - a child for which _earlier_parent holds also grows from a parent
      with fewer edges, which came earlier and already tried a candidate
      of the same class, so the child is not the first of its class; the
      first candidate has no such parent, so it always passes;
    - a child whose _bucket_key no earlier child had is new.  Once a
      bucket has a second child, the forms of its first graph and of
      every later child in it go into one set of forms, and a child is
      kept when its form is not in that set.  Isomorphic graphs share a
      key, so the set holds every form a duplicate could match.
    """
    out: list[Graph] = []
    first: dict[int, int] = {}  # key -> index in out of its only graph, or -1
    seen = set()
    for g in parents:
        n = g.n
        rows = code_rows(g)
        bits = neighbour_masks(g)
        gens = strong_generators(rows)[0]
        for mask in [v for v, _ in orbit_minima(n, [(gen, 0) for gen in gens]) if v]:
            if keep is not None and not keep(bits, mask):
                continue
            child = [b | (mask >> v & 1) << n for v, b in enumerate(bits)]
            child.append(mask)
            if _earlier_parent(child):
                continue
            key = _bucket_key(child)
            nbrs = [v for v in range(n) if mask >> v & 1]
            i = first.get(key)
            if i is None:
                first[key] = len(out)
            else:
                if i >= 0:
                    seen.add(canonical_form(code_rows(out[i])))
                    first[key] = -1
                form = canonical_form([row + [(n, 1)] if mask >> v & 1 else row
                                       for v, row in enumerate(rows)]
                                      + [[(v, 1) for v in nbrs]])
                if form in seen:
                    continue
                seen.add(form)
            out.append(Graph.from_edges(n + 1,
                                        list(g.edges) + [(v, n) for v in nbrs]))
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
    hung = hang_centre(t)
    codes = hung.codes(table, hung.away)
    if hung.centre.kind == "vertex":
        return "v", codes[hung.root]
    return "e", tuple(sorted(hung.halves(table, codes)))


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
def clawfree_graphs(n: int) -> tuple[Graph, ...]:
    """Connected claw-free graphs on n vertices, one per isomorphism class.

    Up to seven vertices this filters the full connected corpus; beyond
    that the vertex-addition chain itself is restricted to claw-free
    graphs, which stays exhaustive because claw-freeness survives
    deleting a vertex.
    """
    if n <= 7:
        return tuple(g for g in connected_graphs(n) if is_claw_free(g))
    return _grow(clawfree_graphs(n - 1), keep=_extends_clawfree)
