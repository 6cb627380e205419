"""Independent checks of the program's outputs.

Nothing here imports the program: graphs arrive as graph6 text or as
(n, edges) pairs and every answer is computed from scratch, by AHU tree
encodings, breadth-first search and brute force over all permutations.
"""

from __future__ import annotations

from itertools import permutations, product

# OEIS counts by vertex count: A000055 trees, A001349 connected graphs,
# A022562 connected claw-free graphs.
TREE_COUNTS = {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
CLAWFREE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 50, 7: 191, 8: 881}


def decode_graph6(text: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Vertex count and sorted edge list of a graph6 string (n <= 62)."""
    n = ord(text[0]) - 63
    if not 0 < n <= 62:
        raise ValueError(f"graph6 size byte out of range in {text!r}")
    bits = []
    for ch in text[1:]:
        x = ord(ch) - 63
        if not 0 <= x < 64:
            raise ValueError(f"bad graph6 character in {text!r}")
        bits.extend((x >> k) & 1 for k in range(5, -1, -1))
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return n, tuple(sorted(edges))


def read_graph6_file(path) -> list[str]:
    lines = []
    with open(path) as fh:
        for raw in fh:
            text = raw.split("#", 1)[0].strip()
            if text:
                lines.append(text)
    return lines


def order_counts(labels) -> dict[int, int]:
    counts: dict[int, int] = {}
    for text in labels:
        n = ord(text[0]) - 63
        counts[n] = counts.get(n, 0) + 1
    return counts


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def connected(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def claw_free(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    for v in range(n):
        nbrs = sorted(adj[v])
        for i, a in enumerate(nbrs):
            for j in range(i + 1, len(nbrs)):
                b = nbrs[j]
                if b in adj[a]:
                    continue
                for c in nbrs[j + 1:]:
                    if c not in adj[a] and c not in adj[b]:
                        return False
    return True


def _centre(n: int, adj: list[set[int]]) -> list[int]:
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    return sorted(layer)


def _ahu(adj: list[set[int]], v: int, parent: int) -> str:
    return "(" + "".join(sorted(_ahu(adj, w, v) for w in adj[v] if w != parent)) + ")"


def swapped_central_edge(n: int, edges) -> bool:
    """Whether the tree has a central edge whose two halves are isomorphic
    as rooted trees, so some automorphism swaps its ends."""
    adj = adjacency(n, edges)
    centre = _centre(n, adj)
    if len(centre) != 2:
        return False
    a, b = centre
    return _ahu(adj, a, b) == _ahu(adj, b, a)


def _automorphisms(n: int, arcs, directed: bool) -> list[tuple[int, ...]]:
    if directed:
        arcset = set(arcs)
        ok = lambda p: all((p[t], p[h]) in arcset for t, h in arcs)  # noqa: E731
    else:
        arcset = {frozenset(e) for e in arcs}
        ok = lambda p: all(frozenset((p[u], p[v])) in arcset for u, v in arcs)  # noqa: E731
    ident = tuple(range(n))
    return [p for p in permutations(range(n)) if p != ident and ok(p)]


def _edge_maps(arcs, auts, directed: bool) -> list[tuple[int, ...]]:
    if directed:
        index = {a: i for i, a in enumerate(arcs)}
        return [tuple(index[(p[t], p[h])] for t, h in arcs) for p in auts]
    index = {frozenset(e): i for i, e in enumerate(arcs)}
    return [tuple(index[frozenset((p[u], p[v]))] for u, v in arcs) for p in auts]


def brute_index(n: int, arcs, directed: bool = False) -> int:
    """Least k with a k-colouring of the edges (arcs) that no non-identity
    automorphism preserves, by trying every colouring."""
    auts = _automorphisms(n, arcs, directed)
    if not auts:
        return 1
    maps = _edge_maps(arcs, auts, directed)
    m = len(arcs)
    for k in range(2, m + 1):
        for col in product(range(k), repeat=m):
            if all(any(col[e[i]] != col[i] for i in range(m)) for e in maps):
                return k
    raise ValueError("no distinguishing colouring; a single undirected edge?")


def brute_od_minus(n: int, edges) -> int:
    """Least brute_index over all 2^m orientations of the graph."""
    best = None
    for flips in range(1 << len(edges)):
        arcs = [(v, u) if flips >> i & 1 else (u, v)
                for i, (u, v) in enumerate(edges)]
        if not _automorphisms(n, arcs, True):
            return 1
        value = brute_index(n, arcs, True)
        best = value if best is None else min(best, value)
    return best
