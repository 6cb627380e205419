"""Exact automorphism groups by exhaustive backtracking, and derived tests.

A group comes either as a strong generating set with its order, found
by one first-hit backtrack per orbit point whatever the group's size,
or as a full element list in lexicographic order of the image array.
Element enumeration is capped (default one million elements) and a
GroupSizeError is raised when the cap is hit, so callers never truncate
a group silently.  A tree's generators and order need no search: they
come from the AHU codes of the tree hung from its centre.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Iterator

from .graphs import Graph, HungTree, Orientation, neighbour_masks
from .search import codes_for, find_maps, nontrivial_map, strong_generators

DEFAULT_GROUP_CAP = 10 ** 6

POINTWISE = "pointwise"
SETWISE_ONLY = "setwise_only"
NOT_FIXED = "not_fixed"


class GroupSizeError(RuntimeError):
    """Automorphism group enumeration exceeded the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"group too large: more than {cap} elements")
        self.cap = cap


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


@dataclass(frozen=True)
class AutGroup:
    """Full element list of an automorphism group, identity included."""

    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p.image in self.image_set

    @cached_property
    def image_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(p.image for p in self.elements)

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1


def automorphisms(x: Graph | Orientation, *, cap: int | None = None) -> Iterator[Permutation]:
    """Automorphisms in lexicographic image order, the identity first."""
    codes = codes_for(x)
    count = 0
    for img in find_maps(codes):
        count += 1
        if cap is not None and count > cap:
            raise GroupSizeError(cap)
        yield Permutation(img)


def automorphism_group(x: Graph | Orientation, *, cap: int = DEFAULT_GROUP_CAP) -> AutGroup:
    return AutGroup(tuple(automorphisms(x, cap=cap)))


def automorphism_generators(x: Graph | Orientation) -> tuple[tuple[Permutation, ...], int]:
    """A strong generating set of the automorphism group, and its order."""
    images, order = strong_generators(codes_for(x))
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
    the same way, doubles the order.
    """
    table: dict[tuple[int, ...], int] = {}
    codes = hung.codes(table, hung.away)
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
        half_a, half_b = hung.halves(table, codes)
        if half_a == half_b:
            a, b = hung.centre.vertices
            gens.append(swap(a, b, [c for c in kids[a] if c != b]))
            order *= 2
    return tuple(gens), order


def nontrivial_automorphism(x: Graph | Orientation) -> Permutation | None:
    """Least non-identity automorphism, or None for a rigid structure."""
    img = nontrivial_map(codes_for(x))
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
    if isinstance(x, Graph):
        masks = neighbour_masks(x)
        if len(set(masks)) < x.n or \
                len({b | 1 << v for v, b in enumerate(masks)}) < x.n:
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
    """Action of an automorphism on the 2|E| ordered arcs."""
    if not is_automorphism(g, p):
        raise ValueError("permutation is not an automorphism of the graph")
    index = {}
    for i, (u, v) in enumerate(g.edges):
        index[(u, v)] = 2 * i
        index[(v, u)] = 2 * i + 1
    arcs = arcs_of(g)
    return Permutation(tuple(index[(p.image[t], p.image[h])] for t, h in arcs))


def edge_action(g: Graph, p: Permutation) -> tuple[tuple[int, ...], int]:
    """Action of an automorphism on direction vectors.

    Returns (perm, flips): output bit perm[i] equals input bit i XOR
    bit i of flips.
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


def is_twisted(g: Graph, p: Permutation) -> bool:
    """True when some edge's two arcs lie in one cycle of the induced arc action.

    Equivalently, some power of p transposes the end-vertices of an edge;
    such an automorphism cannot survive in any orientation of g.
    """
    ap = arc_permutation(g, p)
    cycle_id = [-1] * len(ap.image)
    cid = 0
    for a in range(len(ap.image)):
        if cycle_id[a] == -1:
            b = a
            while cycle_id[b] == -1:
                cycle_id[b] = cid
                b = ap.image[b]
            cid += 1
    return any(cycle_id[2 * i] == cycle_id[2 * i + 1] for i in range(g.m))


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
