"""Exact automorphism groups by exhaustive backtracking, and derived tests.

A group has one representation: a strong generating set with its
order, found by one first-hit backtrack per orbit point whatever the
group's size.  Its elements, when a caller needs them, come one at a
time from the lazy automorphisms iterator in lexicographic order of the
image array; a caller that must bound the listing reads the order
first.  A tree's generators and order need no search: they come from
the AHU codes of the tree hung from its centre.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator

from .graphs import Graph, HungTree, Orientation, has_twins, neighbour_masks
from .search import code_rows, find_maps, nontrivial_map, strong_generators

POINTWISE = "pointwise"
SETWISE_ONLY = "setwise_only"
NOT_FIXED = "not_fixed"


@dataclass(frozen=True)
class Permutation:
    """A bijection of 0..n-1 given by its image array."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.image) != list(range(len(self.image))):
            raise ValueError("image array is not a bijection")

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> Permutation:
        img = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a] = b
        return cls(tuple(img))

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, v: int) -> int:
        return self.image[v]

    @property
    def is_identity(self) -> bool:
        return all(w == v for v, w in enumerate(self.image))

    def compose(self, other: Permutation) -> Permutation:
        """self after other: (self.compose(other))(v) = self(other(v))."""
        return Permutation(tuple(self.image[w] for w in other.image))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for v, w in enumerate(self.image):
            inv[w] = v
        return Permutation(tuple(inv))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Non-trivial cycles, each starting at its least element."""
        seen = [False] * self.n
        out = []
        for v in range(self.n):
            if seen[v] or self.image[v] == v:
                seen[v] = True
                continue
            cyc = [v]
            seen[v] = True
            w = self.image[v]
            while w != v:
                cyc.append(w)
                seen[w] = True
                w = self.image[w]
            out.append(tuple(cyc))
        return tuple(out)

    def order(self) -> int:
        val = 1
        for cyc in self.cycles():
            val = val * len(cyc) // gcd(val, len(cyc))
        return val


def automorphisms(x: Graph | Orientation) -> Iterator[Permutation]:
    """Automorphisms in lexicographic image order, the identity first."""
    for img in find_maps(code_rows(x)):
        yield Permutation(img)


def automorphism_generators(x: Graph | Orientation) -> tuple[tuple[Permutation, ...], int]:
    """A strong generating set of the automorphism group, and its order."""
    images, order = strong_generators(code_rows(x))
    return tuple(Permutation(img) for img in images), order


def tree_automorphism_generators(
        hung: HungTree) -> tuple[tuple[Permutation, ...], int]:
    """Generators of a tree's automorphism group and its order, with no search.

    hung is the tree hung from its first centre vertex a (hang_centre);
    every automorphism of a tree fixes its centre.  The automorphisms
    fixing a act on each vertex's children by permuting runs of children
    with equal AHU codes, each child carrying its subtree along, and
    within each subtree by its own such automorphisms; so they are
    generated by one swap per pair of adjacent siblings, in code order,
    with equal codes.  A swap maps one subtree onto the other by pairing
    children in code order, all the way down, and is its own inverse.
    Their order is the product of (run length)! over all runs.  A centre
    edge (a, b) is swapped by some automorphism exactly when its two
    halves have equal codes (HungTree.halves); then one such swap, built
    the same way, doubles the order.  The codes are hung.shape's.
    """
    shapes, codes = hung.shape
    kids: list[list[int]] = [[] for _ in range(hung.n)]
    for v, p, _, _ in hung.steps:
        kids[p].append(v)
    for k in kids:
        k.sort(key=codes.__getitem__)

    def swap(x: int, y: int, x_kids: list[int]) -> Permutation:
        image = list(range(hung.n))
        pairs = [(x, y, x_kids)]
        while pairs:
            u, w, u_kids = pairs.pop()
            image[u], image[w] = w, u
            pairs.extend((cu, cw, kids[cu]) for cu, cw in zip(u_kids, kids[w]))
        return Permutation(tuple(image))

    gens = []
    order = 1
    for k in kids:
        run = 1
        for x, y in zip(k, k[1:]):
            if codes[x] == codes[y]:
                gens.append(swap(x, y, kids[x]))
                run += 1
                order *= run
            else:
                run = 1
    if hung.centre.kind == "edge":
        half_a, half_b = hung.halves(shapes.codes, codes)
        if half_a == half_b:
            a, b = hung.centre.vertices
            gens.append(swap(a, b, [c for c in kids[a] if c != b]))
            order *= 2
    return tuple(gens), order


def nontrivial_automorphism(x: Graph | Orientation) -> Permutation | None:
    """Least non-identity automorphism, or None for a rigid structure."""
    img = nontrivial_map(code_rows(x))
    return None if img is None else Permutation(img)


def is_rigid(x: Graph | Orientation) -> bool:
    """Whether x has no automorphism but the identity.

    A graph with twins, two vertices u, v with N(u) = N(v) or
    N[u] = N[v], is not rigid: swapping u and v fixes every other
    vertex and keeps each edge, since u and v see the same vertices
    apart from each other.  Twins show as equal neighbour masks, open
    or closed, found in O(m); only a graph without them, or an
    orientation, goes to the search.
    """
    if isinstance(x, Graph) and has_twins(neighbour_masks(x)):
        return False
    return nontrivial_automorphism(x) is None


def is_automorphism(x: Graph | Orientation, p: Permutation) -> bool:
    if isinstance(x, Orientation):
        arcset = set(x.arcs)
        return len(p.image) == x.base.n and all(
            (p.image[t], p.image[h]) in arcset for t, h in x.arcs)
    return len(p.image) == x.n and all(
        x.has_edge(p.image[u], p.image[v]) for u, v in x.edges)


def arcs_of(g: Graph) -> tuple[tuple[int, int], ...]:
    """Canonical ordered-arc list: edge i yields arcs 2i = (u, v), 2i+1 = (v, u)."""
    out = []
    for u, v in g.edges:
        out.append((u, v))
        out.append((v, u))
    return tuple(out)


def arc_permutation(g: Graph, p: Permutation) -> Permutation:
    """Action of an automorphism on the 2|E| ordered arcs.

    Arc 2i + b goes to arc 2 perm[i] + (b XOR bit i of flips), with
    (perm, flips) the automorphism's edge_action.
    """
    if not is_automorphism(g, p):
        raise ValueError("permutation is not an automorphism of the graph")
    perm, flips = edge_action(g, p)
    image = []
    for i, j in enumerate(perm):
        b = flips >> i & 1
        image += [2 * j + b, 2 * j + (b ^ 1)]
    return Permutation(tuple(image))


def edge_action(g: Graph, p: Permutation) -> tuple[tuple[int, ...], int]:
    """Action of an automorphism on edge indices and direction vectors.

    Returns (perm, flips): p maps edge i onto edge perm[i], reversing it
    when bit i of flips is set, so output bit perm[i] of a direction
    vector equals input bit i XOR bit i of flips.  This is the one place
    a vertex map is carried onto edges.
    """
    perm = []
    flips = 0
    for i, (u, v) in enumerate(g.edges):
        pu, pv = p.image[u], p.image[v]
        if pu > pv:
            pu, pv = pv, pu
            flips |= 1 << i
        perm.append(g.edge_index[(pu, pv)])
    return tuple(perm), flips


def _action_tables(k: int, actions):
    """Split each vector action into two table lookups by half-words.

    The action v -> perm(v ^ flips) is affine over GF(2), so each half's
    table starts from the image of 0, its flips moved through perm, and
    doubles once per bit: the entries with bit i set are those without
    it, each XORed with the image of bit i.
    """
    lo_bits = (k + 1) // 2
    tables = []
    for perm, flips in actions:
        halves = []
        for shift, bits in ((0, lo_bits), (lo_bits, k - lo_bits)):
            moved = [1 << perm[shift + i] for i in range(bits)]
            half = [sum(b for i, b in enumerate(moved)
                        if flips >> (shift + i) & 1)]
            for b in moved:
                half += [w ^ b for w in half]
            halves.append(half)
        tables.append(halves)
    return lo_bits, tables


def orbit_minima(k: int, actions) -> Iterator[tuple[int, int]]:
    """(least vector, orbit size) of each orbit of the k-bit vectors.

    actions are affine maps (perm, flips), each taking v to the vector
    whose bit perm[i] is bit i of v XOR bit i of flips; the orbits are
    those of the group they generate.  An edge_action acts on direction
    vectors, and a vertex permutation with no flips on vertex sets.
    Vectors come in ascending order.  Each orbit is closed over the
    actions when the walk reaches its least vector, before that vector
    is handed out, so a caller that stops early never pays for the
    orbits it skips.
    """
    lo_bits, tables = _action_tables(k, actions)
    mask = (1 << lo_bits) - 1
    seen = bytearray(1 << k)
    for v in range(1 << k):
        if seen[v]:
            continue
        seen[v] = 1
        stack = [v]
        size = 1
        while stack:
            u = stack.pop()
            for lo, hi in tables:
                w = lo[u & mask] | hi[u >> lo_bits]
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
                    size += 1
        yield v, size


def kept_vector(g: Graph, p: Permutation) -> int | None:
    """The direction vector of an orientation p keeps, or None when p is twisted.

    Walks each cycle of p's action on edges (edge_action) from its least
    edge, which keeps its canonical direction; each edge passes its
    direction on to its image, reversed where p reverses the edge.  A
    cycle that flips an odd number of times brings the direction back
    reversed: then some power of p transposes the end-vertices of an
    edge, and no orientation of g keeps p.  This is the one walk that
    decides it.  Raises ValueError unless p is an automorphism of g.
    """
    if not is_automorphism(g, p):
        raise ValueError("permutation is not an automorphism of the graph")
    perm, flips = edge_action(g, p)
    vector = seen = 0
    for start in range(g.m):
        if seen >> start & 1:
            continue
        bit, j = 0, start
        while not seen >> j & 1:
            seen |= 1 << j
            vector |= bit << j
            bit ^= flips >> j & 1
            j = perm[j]
        if bit:
            return None
    return vector


def is_twisted(g: Graph, p: Permutation) -> bool:
    """Whether no orientation of g keeps the automorphism p (kept_vector)."""
    return kept_vector(g, p) is None


def fixed_set_status(perms: Iterable[Permutation], s: Iterable[int]) -> str:
    """How a vertex set sits under a group: pointwise, setwise_only, not_fixed.

    perms may be the whole group or any generating set of it: the
    setwise and the pointwise stabiliser of a set are subgroups, so the
    group fixes the set in either sense exactly when every generator does.
    """
    sset = frozenset(s)
    pointwise = True
    for p in perms:
        img = {p.image[v] for v in sset}
        if img != sset:
            return NOT_FIXED
        if any(p.image[v] != v for v in sset):
            pointwise = False
    return POINTWISE if pointwise else SETWISE_ONLY
