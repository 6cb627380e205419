"""Undirected graphs, orientations, text formats, and structure recognition.

Vertices are 0..n-1.  Edges are stored as (u, v) pairs with u < v in
lexicographic order; the position of an edge in that order is its canonical
index, used everywhere else (colour assignments, direction vectors).

Structure is read off neighbour bitmasks (neighbour_masks) by a few
primitives, which the structure probes, the claw-free construction,
corpus growth and the conjecture scan share: reach (a breadth-first
search inside a vertex mask), path_walk (the least longest path inside
a vertex mask), cycles (every simple cycle, in lexicographic order),
has_independent_triple and has_claw (the claw test) and has_twins (the
rigidity test's twin screen).  The masks are the one adjacency view:
bipartition, tree_center and hang walk them too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice
from typing import Iterator
from math import comb, isqrt


class FormatError(ValueError):
    """Text in graph6/digraph6/edgelist form that cannot be decoded."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with a canonical sorted edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph must have at least one vertex")
        prev = None
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) is not canonical for n={self.n}")
            if prev is not None and (u, v) <= prev:
                raise ValueError("edges must be strictly increasing")
            prev = (u, v)

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        """Build a graph from unordered pairs, rejecting loops and duplicates."""
        canon = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            canon.append((u, v) if u < v else (v, u))
        if len(set(canon)) != len(canon):
            raise ValueError("duplicate edge")
        return cls(n, tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def hung(self) -> HungTree:
        """This tree hung from its first centre vertex (hang_centre).

        Made on first use and kept with the graph, so the questions
        asked of one tree (its case, its group, its sweep, its witness
        colourings) hang it once.  Raises ValueError unless the graph
        is a tree.
        """
        return hang_centre(self)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return ((u, v) if u < v else (v, u)) in self.edge_index

    def index_of(self, u: int, v: int) -> int:
        """Canonical index of the edge between u and v."""
        return self.edge_index[(u, v) if u < v else (v, u)]

    def relabel(self, image) -> Graph:
        """Apply the vertex map i -> image[i] and re-canonicalise."""
        return Graph.from_edges(self.n, ((image[u], image[v]) for u, v in self.edges))


@dataclass(frozen=True)
class Orientation:
    """An orientation of a graph: its direction vector.

    Bit i of vector is set when edge i = (u, v) is reversed and carries
    the arc v -> u, so the 2^m orientations are the integers 0..2^m-1.
    """

    base: Graph
    vector: int

    def __post_init__(self) -> None:
        if type(self.vector) is not int or not 0 <= self.vector < 1 << self.base.m:
            raise ValueError(f"direction vector {self.vector!r} is not an int "
                             f"in 0..2^{self.base.m}-1")

    @classmethod
    def from_arcs(cls, base: Graph, arcs) -> Orientation:
        seen = vector = 0
        for t, h in arcs:
            if not base.has_edge(t, h):
                raise ValueError(f"arc {(t, h)} is not on an edge of the base")
            i = base.index_of(t, h)
            if seen >> i & 1:
                raise ValueError(f"edge {base.edges[i]} directed twice")
            seen |= 1 << i
            vector |= (t > h) << i
        if seen != (1 << base.m) - 1:
            raise ValueError("every edge needs a direction")
        return cls(base, vector)

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        vec = self.vector
        return tuple((v, u) if vec >> i & 1 else (u, v)
                     for i, (u, v) in enumerate(self.base.edges))

    def relabel(self, image) -> Orientation:
        new_base = self.base.relabel(image)
        return Orientation.from_arcs(new_base, ((image[t], image[h]) for t, h in self.arcs))


# ---------------------------------------------------------------------------
# graph6 / digraph6 / edgelist

_G6_HEADER = ">>graph6<<"
_D6_HEADER = ">>digraph6<<"


def _decode_size(text: str) -> tuple[int, str]:
    if not text:
        raise FormatError("empty input")
    code = ord(text[0])
    if code == 126:
        raise FormatError("graphs with more than 62 vertices are not supported")
    if not 63 <= code <= 125:
        raise FormatError(f"bad size byte {text[0]!r}")
    n = code - 63
    if n == 0:
        raise FormatError("vertex count 0")
    return n, text[1:]


def _decode_int(data: str, count: int) -> int:
    """data's count bits, six per character, as one int; the padding must be 0."""
    need = (count + 5) // 6
    if len(data) != need:
        raise FormatError(f"expected {need} data bytes, got {len(data)}")
    x = 0
    for ch in data:
        code = ord(ch) - 63
        if not 0 <= code <= 63:
            raise FormatError(f"bad data byte {ch!r}")
        x = x << 6 | code
    pad = 6 * need - count
    if x & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits")
    return x >> pad


def _encode_int(x: int, count: int) -> str:
    """Inverse of _decode_int: x's count bits, padded, six per character."""
    need = (count + 5) // 6
    x <<= 6 * need - count
    return "".join([chr((x >> s & 63) + 63) for s in range(6 * need - 6, -1, -6)])


def _parse_graph6(text: str) -> Graph:
    """The graph text encodes.

    The text accepted, header and whitespace removed, is exactly
    encode_graph6 of the result: _decode_size accepts only the one-byte
    size, and _decode_int only the exact data length, bytes 63..126 and
    zero padding, so each graph has one text that parses to it.
    """
    text = text.removeprefix(_G6_HEADER).strip()
    n, data = _decode_size(text)
    count = n * (n - 1) // 2
    x = _decode_int(data, count)
    # bit k from the top holds the k-th pair (i, j) in the order j, then i:
    # k = j(j-1)/2 + i
    edges = []
    while x:
        b = x.bit_length() - 1
        x ^= 1 << b
        k = count - 1 - b
        j = (1 + isqrt(8 * k + 1)) // 2
        edges.append((k - j * (j - 1) // 2, j))
    edges.sort()
    return Graph(n, tuple(edges))


def _parse_digraph6(text: str) -> Orientation:
    text = text.removeprefix(_D6_HEADER).strip()
    if not text.startswith("&"):
        raise FormatError("digraph6 input must start with '&'")
    n, data = _decode_size(text[1:])
    count = n * n
    x = _decode_int(data, count)
    # bit k from the top is the arc t -> h with k = t * n + h; the arcs
    # are read in that order
    arcs = []
    rest = x
    while rest:
        b = rest.bit_length() - 1
        rest ^= 1 << b
        t, h = divmod(count - 1 - b, n)
        if t == h:
            raise FormatError("not an orientation: loop")
        if h < t and x >> (count - 1 - (h * n + t)) & 1:
            raise FormatError("not an orientation: opposite arcs")
        arcs.append((t, h))
    base = Graph.from_edges(n, arcs)
    return Orientation.from_arcs(base, arcs)


def _parse_edgelist(text: str) -> Graph:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise FormatError("empty edgelist")
    try:
        n = int(rows[0])
    except ValueError as exc:
        raise FormatError(f"bad vertex count line {rows[0]!r}") from exc
    if n < 1:
        raise FormatError("vertex count 0")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {line!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u}, {v}) out of range")
        edges.append((u, v))
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def parse(fmt: str, text: str) -> Graph | Orientation:
    """Decode one of the supported text formats.

    fmt is "graph6", "digraph6" or "edgelist".  digraph6 input must encode
    an orientation (no loops, no opposite arc pairs).
    """
    text = text.strip()
    if fmt == "graph6":
        return _parse_graph6(text)
    if fmt == "digraph6":
        return _parse_digraph6(text)
    if fmt == "edgelist":
        return _parse_edgelist(text)
    raise FormatError(f"unknown format {fmt!r}")


def encode_graph6(g: Graph) -> str:
    """g's graph6 text, without the header."""
    n = g.n
    if n > 62:
        raise ValueError("graph6 encoding supported only for n <= 62")
    count = n * (n - 1) // 2
    x = 0
    for i, j in g.edges:
        x |= 1 << (count - 1 - (j * (j - 1) // 2 + i))
    return chr(n + 63) + _encode_int(x, count)


def encode_digraph6(o: Orientation) -> str:
    n = o.base.n
    if n > 62:
        raise ValueError("digraph6 encoding supported only for n <= 62")
    count = n * n
    x = 0
    for t, h in o.arcs:
        x |= 1 << (count - 1 - (t * n + h))
    return "&" + chr(n + 63) + _encode_int(x, count)


# ---------------------------------------------------------------------------
# Structure recognition

@dataclass(frozen=True)
class StructureReport:
    connected: bool
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None
    is_tree: bool
    is_claw_free: bool
    hamiltonian_path: tuple[int, ...] | None
    longest_cycle: tuple[int, ...] | None


@dataclass(frozen=True)
class CenterInfo:
    """Centre of a tree: kind is "vertex" or "edge"."""

    kind: str
    vertices: tuple[int, ...]


def neighbour_masks(g: Graph) -> list[int]:
    """Bit w of entry v is set when vw is an edge; fills no cache on g."""
    bits = [0] * g.n
    for u, v in g.edges:
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    return bits


def reach(bits: list[int], start: int, within: int = -1) -> int:
    """Vertices reached from start through the vertex mask within, as a mask.

    One breadth-first search on bitmasks: bits[v] holds v's neighbours,
    or its out-neighbours for a directed walk.  start itself is always
    reached; every other vertex reached lies in within, which holds
    every vertex by default.
    """
    seen = frontier = 1 << start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        fresh = bits[low.bit_length() - 1] & within & ~seen
        seen |= fresh
        frontier |= fresh
    return seen


def is_connected(g: Graph) -> bool:
    """One reach from vertex 0 on neighbour bitmasks; fills no cache on g."""
    return reach(neighbour_masks(g), 0) == (1 << g.n) - 1


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two-colouring with every edge crossing, or None.

    Each component is walked layer by layer from its least vertex on
    neighbour bitmasks, the layers going to the two sides in turn, so
    the side containing the least vertex of each component is the first
    class, which makes the result canonical.
    """
    bits = neighbour_masks(g)
    sides = [0, 0]
    todo = (1 << g.n) - 1
    while todo:
        layer, side = todo & -todo, 0
        while layer:
            todo ^= layer
            sides[side] |= layer
            nbrs = 0
            for v in range(layer.bit_length()):
                if layer >> v & 1:
                    nbrs |= bits[v]
            if nbrs & sides[side]:
                return None
            layer, side = nbrs & todo, 1 - side
    return tuple(tuple(v for v in range(g.n) if mask >> v & 1) for mask in sides)


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and is_connected(g)


def has_independent_triple(bits: list[int], mask: int) -> bool:
    """Whether the vertex mask holds three pairwise non-adjacent vertices.

    bits[v] is v's neighbour bitmask.  For each vertex a of mask, the
    later vertices of mask not adjacent to a are tested pairwise.
    """
    while mask:
        a = mask & -mask
        mask ^= a
        apart = mask & ~bits[a.bit_length() - 1]
        while apart:
            b = apart & -apart
            apart ^= b
            if apart & ~bits[b.bit_length() - 1]:
                return True
    return False


def has_claw(bits: list[int]) -> bool:
    """Whether a vertex has three pairwise non-adjacent neighbours."""
    return any(has_independent_triple(bits, b) for b in bits)


def is_claw_free(g: Graph) -> bool:
    """True when g has no induced claw; fills no cache on g."""
    return not has_claw(neighbour_masks(g))


def has_twins(bits: list[int]) -> bool:
    """Whether two vertices have equal open or equal closed neighbourhoods."""
    return len(set(bits)) < len(bits) or \
        len({b | 1 << v for v, b in enumerate(bits)}) < len(bits)


def path_walk(bits: list[int], within: int) -> tuple[int, ...]:
    """Lexicographically least longest path inside a non-empty vertex mask.

    bits[v] is v's neighbour bitmask.  One iterative depth-first walk
    over every simple path inside within, starts and then each next
    vertex in ascending order, so paths come in lexicographic order and
    the first one longer than all before it is the least of its length.
    A path through every vertex of within ends the walk.
    """
    bits = [b & within for b in bits]
    size = within.bit_count()
    best = ((within & -within).bit_length() - 1,)
    longest = 1
    for s in range(best[0], len(bits)):
        if not within >> s & 1:
            continue
        path = [s]
        seen = 1 << s
        todo = [bits[s]]
        depth = 1
        while depth:
            cand = todo[-1] & ~seen
            if cand:
                low = cand & -cand
                todo[-1] = cand ^ low
                w = low.bit_length() - 1
                path.append(w)
                seen |= low
                depth += 1
                if depth > longest:
                    best = tuple(path)
                    longest = depth
                    if depth == size:
                        return best
                todo.append(bits[w])
            else:
                todo.pop()
                seen ^= 1 << path.pop()
                depth -= 1
    return best


def longest_path(g: Graph) -> tuple[int, ...]:
    """Lexicographically least path of maximum length; fills no cache on g.

    When g is traceable this is hamiltonian_path(g), found by the same
    walk, which stops at the first path through every vertex.
    """
    return path_walk(neighbour_masks(g), (1 << g.n) - 1)


def hamiltonian_path(g: Graph) -> tuple[int, ...] | None:
    """Lexicographically least Hamiltonian path, or None.

    Exhaustive walk over simple paths in lexicographic order, stopped at
    the first through every vertex (the one longest_path finds).  A path
    has two ends, and every other vertex on it has two neighbours, so
    with three or more vertices of degree at most 1 there is none to
    search for.  Fills no cache on g.
    """
    bits = neighbour_masks(g)
    if sum(b & (b - 1) == 0 for b in bits) >= 3:
        return None
    path = path_walk(bits, (1 << g.n) - 1)
    return path if len(path) == g.n else None


def cycles(out: list[int]) -> Iterator[tuple[int, ...]]:
    """Every simple cycle of three or more vertices, in lexicographic order.

    out[v] is the bitmask of v's out-neighbours; for neighbour bitmasks
    each cycle comes once in each direction.  A cycle is written from
    its least vertex.  One depth-first walk from each start, through
    later vertices in ascending order, yields a path as a cycle when its
    last vertex has an arc back to the start, before extending it.
    """
    for s in range(len(out)):
        later = -2 << s
        path = [s]
        seen = 1 << s
        todo = [out[s] & later]
        while todo:
            cand = todo[-1] & ~seen
            if cand:
                low = cand & -cand
                todo[-1] = cand ^ low
                w = low.bit_length() - 1
                path.append(w)
                seen |= low
                if len(path) > 2 and out[w] >> s & 1:
                    yield tuple(path)
                todo.append(out[w] & later)
            else:
                todo.pop()
                seen ^= 1 << path.pop()


def longest_cycle(g: Graph) -> tuple[int, ...] | None:
    """Lexicographically least cycle of maximum length, or None.

    The first longest of cycles(), which come in lexicographic order,
    both traversal directions included.  A cycle from start s has at
    most n - s vertices, so the walk stops once none can be longer.
    Fills no cache on g.
    """
    best = None
    longest = 2
    for cycle in cycles(neighbour_masks(g)):
        if len(cycle) > longest:
            best, longest = cycle, len(cycle)
        if longest >= g.n - cycle[0]:
            break
    return best


def analyze(g: Graph) -> StructureReport:
    """Exact structure report; every field is computed, none is estimated."""
    return StructureReport(
        connected=is_connected(g),
        bipartition=bipartition(g),
        is_tree=is_tree(g),
        is_claw_free=is_claw_free(g),
        hamiltonian_path=hamiltonian_path(g),
        longest_cycle=longest_cycle(g),
    )


def tree_center(g: Graph) -> CenterInfo:
    """Centre of a tree by repeated leaf stripping.

    A mask holds the vertices still in play; each round strips those
    with at most one neighbour in it.  Raises ValueError unless g is a
    tree, which the stripping itself tells: with m = n - 1, a graph that
    is not a tree has a cycle, whose vertices never become leaves, so a
    round finds no leaf while more than two vertices remain.
    """
    if g.m != g.n - 1:
        raise ValueError("tree_center requires a tree")
    bits = neighbour_masks(g)
    alive = (1 << g.n) - 1
    while alive.bit_count() > 2:
        leaves = sum(1 << v for v in range(g.n)
                     if alive >> v & 1 and (bits[v] & alive).bit_count() <= 1)
        if not leaves:
            raise ValueError("tree_center requires a tree")
        alive ^= leaves
    rest = tuple(v for v in range(g.n) if alive >> v & 1)
    if len(rest) == 1:
        return CenterInfo("vertex", rest)
    u, v = rest
    if not bits[u] >> v & 1:
        raise AssertionError("two-vertex centre must be an edge")
    return CenterInfo("edge", rest)


class ShapeTable:
    """AHU shape codes of rooted trees and their colouring counts E_k.

    HungTree.codes interns codes in the codes dict, so codes from one
    table compare as integers across trees, roots and orientations.
    E_k is memoised per width and extended as the table grows, and the
    index per code: a sweep over the orientations of one tree counts
    each directed shape once per width and finds each index once.
    """

    def __init__(self) -> None:
        self.codes: dict[tuple[int, ...], int] = {}
        self._counts: dict[int, list[int]] = {}
        self._index: dict[int, int] = {}

    def count(self, code: int, k: int) -> int:
        """E_k of the rooted tree with this code.

        A colouring breaks every root-preserving automorphism exactly
        when, at each vertex, the pairs (edge colour to a child, class
        of the child's coloured subtree) are pairwise distinct.  Only
        children with one key (shape and arc direction) can clash, so
        E_k(v) is the product, over the keys of v's children, of
        C(k * E_k(child), multiplicity), and a leaf has E_k = 1.  A key
        tuple is sorted, so each run of equal entries is one factor, and
        the product stops at the first factor 0.  The table lists
        children before parents, so one pass in code order counts every
        shape with no recursion.
        """
        counts = self._counts.setdefault(k, [])
        if len(counts) == len(self.codes):
            return counts[code]
        for key in islice(self.codes, len(counts), None):
            total, start = 1, 0
            for end in range(1, len(key) + 1):
                if end == len(key) or key[end] != key[start]:
                    total *= comb(k * counts[key[start] >> 1], end - start)
                    if not total:
                        break
                    start = end
            counts.append(total)
        return counts[code]

    def index(self, code: int) -> int:
        """Least width k with E_k(code) > 0: the rooted index, memoised."""
        k = self._index.get(code)
        if k is None:
            k = 1
            while self.count(code, k) == 0:
                k += 1
            self._index[code] = k
        return k


@dataclass(frozen=True)
class HungTree:
    """A tree hung from a root, ready to be coded under any orientation.

    steps lists each non-root vertex as (vertex, parent, edge index,
    below), children before parents (reversed BFS order); below is 1
    when vertex < parent.  Edge i's bit in a direction vector (set when
    the edge is reversed, as in Orientation.vector) XOR below is 1
    exactly when its arc points to the parent.  centre is the tree's
    centre when it was hung from its first centre vertex (hang_centre).
    """

    n: int
    root: int
    steps: tuple[tuple[int, int, int, int], ...]
    centre: CenterInfo | None = None

    @property
    def away(self) -> int:
        """Direction vector with every arc pointing away from the root."""
        return sum(below << i for _, _, i, below in self.steps)

    @cached_property
    def shape(self) -> tuple[ShapeTable, list[int]]:
        """A ShapeTable and every vertex's code in it, arcs pointing away.

        The codes are interned first, so they are numbered as in a fresh
        table.  Made once per hung tree: the tree's case, index and group
        read this one table, and what one of them counts or interns is
        there for the next.
        """
        shapes = ShapeTable()
        return shapes, self.codes(shapes.codes, self.away)

    def codes(self, table: dict[tuple[int, ...], int], vec: int) -> list[int]:
        """AHU code of every vertex's subtree under direction vector vec.

        A code is an integer interned in table, which maps the sorted
        tuple of a vertex's child keys to its code (a leaf's tuple is
        empty).  A child's key is twice its code, plus one when its arc
        points to the parent.  Two rooted subtrees are isomorphic, arc
        directions included, exactly when their codes from one table are
        equal.  Codes compare as integers however deep the tree, and a
        code enters the table after its children's.
        """
        keys: list[list[int]] = [[] for _ in range(self.n)]
        codes = [0] * self.n
        intern = table.setdefault
        leaf = intern((), len(table))
        for v, p, i, below in self.steps:
            kv = keys[v]
            if kv:
                kv.sort()
                codes[v] = c = intern(tuple(kv), len(table))
            else:
                codes[v] = c = leaf
            keys[p].append(2 * c + (vec >> i & 1 ^ below))
        codes[self.root] = intern(tuple(sorted(keys[self.root])), len(table))
        return codes

    def halves(self, table: dict[tuple[int, ...], int],
               codes: list[int]) -> tuple[int, int]:
        """AHU codes of the two halves of the centre edge (a, b).

        The tree must hang from a by hang_centre, with an edge centre,
        and codes must come from table with every arc pointing away
        from a.  Removing the centre edge leaves a's half, rooted at a,
        and b's, rooted at b: b's is b's subtree, codes[b], and a's
        holds a's other children, interned here.  Some automorphism
        swaps a and b exactly when the two codes are equal.
        """
        a, b = self.centre.vertices
        rest = sorted(2 * codes[v] for v, p, _, _ in self.steps if p == a and v != b)
        return table.setdefault(tuple(rest), len(table)), codes[b]


def hang(t: Graph, root: int) -> HungTree:
    """The tree t hung from root by one breadth-first search on
    neighbour bitmasks, which takes neighbours in ascending order."""
    if not 0 <= root < t.n:
        raise ValueError(f"root {root} is not a vertex of a graph on {t.n} vertices")
    bits = neighbour_masks(t)
    parent = [-1] * t.n
    seen = 1 << root
    order = [root]
    for v in order:
        fresh = bits[v] & ~seen
        seen |= fresh
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            w = low.bit_length() - 1
            parent[w] = v
            order.append(w)
    if t.m != t.n - 1 or len(order) != t.n:
        raise ValueError("only a tree can be hung from a root")
    return HungTree(t.n, root, tuple(
        (v, parent[v], t.index_of(parent[v], v), int(v < parent[v]))
        for v in reversed(order[1:])))


def hang_centre(t: Graph) -> HungTree:
    """The tree t hung from its first centre vertex, keeping its centre.

    Every automorphism of a tree fixes its centre, so this one hanging
    answers each question about the tree's symmetry: its group, its
    index and whether a centre edge is swapped (HungTree.halves).
    Raises ValueError unless t is a tree.
    """
    centre = tree_center(t)
    return replace(hang(t, centre.vertices[0]), centre=centre)
