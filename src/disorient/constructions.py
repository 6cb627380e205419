"""Constructive orientation procedures and the tree case analysis.

Each public function realises one constructive argument exactly as
stated, with deterministic tie-breaking (smallest label or
lexicographically least choice everywhere), so repeated runs produce
identical orientations.  Constructions whose correctness rests on a
claimed invariant verify that invariant at the end and raise
ConstructionError with a diagnostic rather than return a bad result.

The claw-free construction runs on neighbour bitmasks: a cut vertex is
one whose removal disconnects the graph (reach), a leaf block is a
component it leaves with no cut vertex, and each path it needs is a
path_walk inside a vertex mask, so no induced subgraph is built.

The tree case analysis counts rather than searches.  It hangs the tree
once from its centre (Graph.hung): the central-edge swap is an equality
of the two halves' AHU shape codes (HungTree.halves), and the index D
is a rooted index counted over the same shape classes.  The case alone
(centre_case) counts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .distinguishing import Colouring
from .graphs import (CenterInfo, Graph, Orientation, bipartition,
                     hamiltonian_path, is_claw_free, is_connected,
                     longest_cycle, neighbour_masks, path_walk, reach)
from .groups import (Permutation, is_automorphism, kept_vector,
                     nontrivial_automorphism)

CENTRAL_VERTEX = "central_vertex"
CENTRAL_EDGE_FIXED = "central_edge_fixed"
CENTRAL_EDGE_SWAPPED = "central_edge_swapped"


class ConstructionError(RuntimeError):
    """A construction could not complete or failed its final invariant."""


@dataclass(frozen=True)
class OrderedPartition:
    """An ordered partition of 0..n-1 into disjoint vertex classes."""

    classes: tuple[frozenset[int], ...]

    @classmethod
    def of(cls, *classes) -> OrderedPartition:
        return cls(tuple(frozenset(c) for c in classes))

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for c in self.classes:
            if c & seen:
                raise ValueError("partition classes overlap")
            seen |= c

    def check_for(self, g: Graph) -> None:
        """Classes must cover the vertices and be independent in g."""
        covered = frozenset().union(*self.classes) if self.classes else frozenset()
        if covered != frozenset(range(g.n)):
            raise ValueError("partition does not cover the vertex set")
        for c in self.classes:
            for u, v in g.edges:
                if u in c and v in c:
                    raise ValueError(
                        f"class {sorted(c)} contains the edge ({u}, {v})")

    def index_of(self, v: int) -> int:
        """Position of v's class, counted from 1."""
        for i, c in enumerate(self.classes, start=1):
            if v in c:
                return i
        raise ValueError(f"vertex {v} is in no class")


@dataclass(frozen=True)
class PairColouring:
    """A colouring by pairs (bit, colour): bit in {0,1}, colour in 1..width.

    The bit component will drive edge directions, the colour component
    becomes an arc colouring.
    """

    width: int
    bits: tuple[int, ...]
    colours: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("pair colouring width must be at least 1")
        if len(self.bits) != len(self.colours):
            raise ValueError("bit and colour components differ in length")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bit component must be 0 or 1")
        if any(not 1 <= c <= self.width for c in self.colours):
            raise ValueError("colour out of range for the declared width")

    def flatten(self) -> Colouring:
        """Injective single-value form: pair (b, c) becomes b*width + c."""
        return Colouring(2 * self.width,
                         tuple(b * self.width + c
                               for b, c in zip(self.bits, self.colours)))

    @classmethod
    def from_flat(cls, c: Colouring) -> PairColouring:
        """Split colours 1..w into pairs over width ceil(w/2); inverse of flatten
        up to the declared width when w is odd."""
        r = ceil(c.width / 2)
        bits = tuple(0 if v <= r else 1 for v in c.assignment)
        colours = tuple(v - b * r for v, b in zip(c.assignment, bits))
        return cls(r, bits, colours)


@dataclass(frozen=True)
class TreeCase:
    """How a tree's centre sits under its automorphisms, and its index.

    dprime is the tree's distinguishing index D.  unique_optimal is
    filled only in the swapped case: a half is one component of the
    tree minus the central edge, rooted at its central-edge endpoint,
    and unique_optimal records whether its optimal distinguishing
    colouring is unique up to root-preserving automorphisms.
    """

    kind: str
    center: CenterInfo
    dprime: int
    unique_optimal: bool | None = None


@dataclass(frozen=True)
class ClawfreeTrace:
    """Construction transcript for the claw-free rigid orientation.

    branch is "hamiltonian", "cycle" or "cut_vertex".  For the cycle
    branch, cycle holds the directed cycle's vertex order and
    checkpoint_arcs the arcs oriented before the leftover phase.  For
    the cut-vertex branch, source is the vertex made a unique source.
    """

    result: Orientation
    branch: str
    cycle: tuple[int, ...] | None = None
    checkpoint_arcs: tuple[tuple[int, int], ...] | None = None
    source: int | None = None


def layered_orientation(g: Graph, partition: OrderedPartition) -> Orientation:
    """Direct every edge from its lower-indexed class to the higher one.

    When every class is setwise fixed by Aut(g), the result keeps the
    whole automorphism group.
    """
    partition.check_for(g)
    idx = {v: partition.index_of(v) for v in range(g.n)}
    return Orientation(g, sum(1 << i for i, (u, v) in enumerate(g.edges)
                              if idx[u] > idx[v]))


def natural_bipartition(g: Graph) -> OrderedPartition:
    """The graph's two-colour classes as an ordered partition."""
    classes = bipartition(g)
    if classes is None:
        raise ValueError("graph is not bipartite")
    return OrderedPartition.of(*classes)


def split_colouring(g: Graph, partition: OrderedPartition,
                    pair: PairColouring) -> tuple[Orientation, Colouring]:
    """Turn a pair colouring into an orientation plus an arc colouring.

    An edge whose pair bit is 0 is directed like the layered
    orientation, a bit of 1 reverses it, so the direction vector is the
    layered one XOR the pair bits; the arc keeps the pair's colour
    component.
    """
    layered = layered_orientation(g, partition)
    if len(pair.bits) != g.m:
        raise ValueError("pair colouring length does not match the edge count")
    flips = sum(b << i for i, b in enumerate(pair.bits))
    return Orientation(g, layered.vector ^ flips), Colouring(pair.width, pair.colours)


def merge_colouring(g: Graph, partition: OrderedPartition, o: Orientation,
                    c: Colouring) -> PairColouring:
    """Exact inverse of split_colouring."""
    layered = layered_orientation(g, partition)
    if o.base != g:
        raise ValueError("orientation does not belong to the given graph")
    if len(c.assignment) != g.m:
        raise ValueError("colouring length does not match the edge count")
    flips = o.vector ^ layered.vector
    return PairColouring(c.width, tuple(flips >> i & 1 for i in range(g.m)),
                         c.assignment)


def _positions(path) -> dict[int, int]:
    return {v: i for i, v in enumerate(path)}


def hamiltonian_orientation(g: Graph, path=None) -> Orientation:
    """Direct every edge from the earlier to the later path position.

    Every vertex ends up with a distinct count of vertices reachable by
    directed paths, so the result has no non-trivial automorphism, since
    an automorphism keeps each vertex's count.  Each reachable set is a
    bitmask built in one pass in reverse path order from the sets of the
    out-neighbours, which are complete by then since every arc points
    later on the path.  A tie raises ConstructionError.  The direction
    vector and the out-neighbour bitmasks the sets are read off both come
    from the path positions, so no cache is filled on g or on the result.
    """
    if path is None:
        path = hamiltonian_path(g)
        if path is None:
            raise ValueError("graph is not traceable")
    path = tuple(path)
    if sorted(path) != list(range(g.n)):
        raise ValueError("path does not visit every vertex exactly once")
    pos = _positions(path)
    vector = 0
    out = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        if pos[u] < pos[v]:
            out[u] |= 1 << v
        else:
            out[v] |= 1 << u
            vector |= 1 << i
    o = Orientation(g, vector)
    if any(not (out[a] >> b | out[b] >> a) & 1 for a, b in zip(path, path[1:])):
        raise ValueError("path is not a path of the graph")
    reach = [0] * g.n
    for v in reversed(path):
        mask = 1 << v
        rest = out[v]
        while rest:
            low = rest & -rest
            mask |= reach[low.bit_length() - 1]
            rest ^= low
        reach[v] = mask
    if len({mask.bit_count() for mask in reach}) < g.n:
        raise ConstructionError(
            f"orientation along path {path} ties reachability counts; "
            f"arcs: {o.arcs}")
    return o


def compatible_orientation(g: Graph, p: Permutation) -> Orientation:
    """An orientation preserved by the given non-twisted automorphism.

    Its direction vector is p's kept_vector: each cycle of p's action on
    edges walked from its least edge, which keeps its canonical direction.
    """
    vector = kept_vector(g, p)
    if vector is None:
        raise ValueError("twisted automorphism admits no compatible orientation")
    o = Orientation(g, vector)
    if not is_automorphism(o, p):
        raise ConstructionError("constructed orientation does not admit the automorphism")
    return o


def _members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _first_leaf_block(bits: list[int]) -> tuple[list[int], int] | None:
    """The leaf block with the least member list, and its cut vertex.

    v is a cut vertex when g - v is disconnected.  A component of g - v
    that holds no cut vertex, together with v, is a block with v as its
    only cut vertex, and every leaf block arises so from its cut vertex.
    None when there is no cut vertex.
    """
    full = (1 << len(bits)) - 1
    parts = {}
    for v in range(len(bits)):
        rest = full ^ 1 << v
        comps = []
        while rest:
            comp = reach(bits, (rest & -rest).bit_length() - 1, rest)
            comps.append(comp)
            rest ^= comp
        if len(comps) > 1:
            parts[v] = comps
    cuts = sum(1 << v for v in parts)
    return min(((_members(comp | 1 << v), v) for v, comps in parts.items()
                for comp in comps if not comp & cuts), default=None)


def _path_cover_upto2(bits: list[int], within: int) -> list[tuple[int, ...]] | None:
    """At most two vertex-disjoint paths covering the vertex mask within.

    Prefers a single Hamiltonian path, then the first split found with
    the first path's vertex set running over the proper subsets of
    within in increasing order.  None when no such cover exists.
    """
    whole = path_walk(bits, within)
    if len(whole) == within.bit_count():
        return [whole]
    left = 0
    while True:
        left = (left - within) & within  # the next subset of within
        if left == within:
            return None
        pl = path_walk(bits, left)
        if len(pl) != left.bit_count():
            continue
        pr = path_walk(bits, within ^ left)
        if len(pr) == (within ^ left).bit_count():
            return [pl, pr]


class _PartialOrientation:
    """Arc decisions made so far, with reachability over the decided arcs."""

    def __init__(self, g: Graph):
        self.g = g
        self.arc: dict[int, tuple[int, int]] = {}
        self.out = [0] * g.n

    def orient(self, t: int, h: int) -> None:
        e = self.g.index_of(t, h)
        if e in self.arc:
            if self.arc[e] != (t, h):
                raise ConstructionError(
                    f"edge {self.g.edges[e]} oriented both ways")
            return
        self.arc[e] = (t, h)
        self.out[t] |= 1 << h

    def oriented(self, u: int, v: int) -> bool:
        return self.g.index_of(u, v) in self.arc

    def reaches(self, a: int, b: int) -> bool:
        return bool(reach(self.out, a) >> b & 1)

    def arcs_snapshot(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.arc[e] for e in sorted(self.arc))


def _orient_positionally(po: _PartialOrientation, sequence, bits: list[int]) -> None:
    """Edges inside the sequence's vertex set not yet oriented run earlier to later."""
    for i, u in enumerate(sequence):
        for w in sequence[i + 1:]:
            if bits[u] >> w & 1 and not po.oriented(u, w):
                po.orient(u, w)


def _expand(bits: list[int], po: _PartialOrientation, order: list[int],
            skip: int) -> None:
    """The reach-and-process recursion shared by both claw-free branches.

    order lists the reached vertices by label, and each is processed in
    turn: its neighbours outside the reached set must have a Hamiltonian
    path, along which they are oriented positionally together with the
    star from the current vertex, and they join order in path order.
    Vertices in the mask skip are not processed (the cut-vertex branch
    has oriented its cut vertex's star already, and keeps one vertex as
    a future source).
    """
    reached = sum(1 << v for v in order)
    for v in order:
        fresh = bits[v] & ~reached
        if not fresh or skip >> v & 1:
            continue
        ordered = path_walk(bits, fresh)
        if len(ordered) != fresh.bit_count():
            raise ConstructionError(
                f"expansion at vertex {v} hit a non-traceable neighbour set "
                f"{_members(fresh)}")
        for w in ordered:
            po.orient(v, w)
        _orient_positionally(po, ordered, bits)
        order.extend(ordered)
        reached |= fresh


def _finish_leftovers(g: Graph, po: _PartialOrientation, skip: int) -> None:
    """Direct remaining edges in canonical order without closing a cycle.

    Prefers the low-to-high direction, reversing when that would create
    a directed cycle; edges at vertices of the mask skip are left alone.
    """
    for u, v in g.edges:
        if (skip >> u | skip >> v) & 1 or po.oriented(u, v):
            continue
        if not po.reaches(v, u):
            po.orient(u, v)
        elif not po.reaches(u, v):
            po.orient(v, u)
        else:
            raise ConstructionError(
                f"edge ({u}, {v}) closes a directed cycle in both directions")


def clawfree_rigid_orientation_trace(g: Graph) -> ClawfreeTrace:
    """Rigid orientation of a connected claw-free graph on six or more vertices.

    Follows the constructive argument: Hamiltonian delegation when the
    longest cycle spans all vertices, else directed-cycle seeding with
    chords low-to-high and the reach-and-process recursion; graphs with
    a cut vertex are seeded from a leaf block and end with a unique
    source.  The result is checked to be rigid.
    """
    if not is_connected(g):
        raise ValueError("construction requires a connected graph")
    if not is_claw_free(g):
        raise ValueError("not claw-free")
    if g.n < 6:
        raise ValueError("construction requires at least six vertices")

    bits = neighbour_masks(g)
    leaf = _first_leaf_block(bits)
    if leaf is None:
        trace = _clawfree_two_connected(g, bits)
    else:
        trace = _clawfree_cut_vertex(g, bits, *leaf)
    witness = nontrivial_automorphism(trace.result)
    if witness is not None:
        raise ConstructionError(
            f"orientation kept the symmetry {witness.image}; arcs: {trace.result.arcs}")
    return trace


def clawfree_rigid_orientation(g: Graph) -> Orientation:
    return clawfree_rigid_orientation_trace(g).result


def _clawfree_two_connected(g: Graph, bits: list[int]) -> ClawfreeTrace:
    cycle = longest_cycle(g)
    assert cycle is not None
    if len(cycle) == g.n:
        o = hamiltonian_orientation(g)
        return ClawfreeTrace(o, "hamiltonian")

    on_cycle = sum(1 << v for v in cycle)
    candidates = [v for v in cycle if not bits[v] & ~on_cycle]
    if not candidates:
        raise ConstructionError(
            "no cycle vertex has its whole neighbourhood on the longest cycle")
    v1 = min(candidates)
    at = cycle.index(v1)
    succ, pred = cycle[(at + 1) % len(cycle)], cycle[at - 1]
    if succ < pred:
        order = cycle[at:] + cycle[:at]
    else:
        order = (cycle[at:at + 1] + tuple(reversed(cycle[:at]))
                 + tuple(reversed(cycle[at + 1:])))

    # the closing arc first: every other edge among the cycle's vertices,
    # on the cycle or a chord, runs forward along order
    po = _PartialOrientation(g)
    po.orient(order[-1], order[0])
    _orient_positionally(po, order, bits)
    _expand(bits, po, list(order), skip=0)
    checkpoint = po.arcs_snapshot()
    _finish_leftovers(g, po, skip=0)
    o = Orientation.from_arcs(g, [po.arc[e] for e in range(g.m)])
    return ClawfreeTrace(o, "cycle", cycle=order, checkpoint_arcs=checkpoint)


def _clawfree_cut_vertex(g: Graph, bits: list[int], block: list[int],
                         v: int) -> ClawfreeTrace:
    u = min(w for w in block if bits[v] >> w & 1)
    others = bits[v] & ~(1 << u)
    cover = _path_cover_upto2(bits, others)
    if cover is None:
        raise ConstructionError(
            f"neighbourhood {_members(others)} of cut vertex {v} "
            "has no cover by two paths")

    po = _PartialOrientation(g)
    for w in _members(others):
        po.orient(v, w)
    for path in cover:
        _orient_positionally(po, path, bits)

    order = [v, *(w for path in cover for w in path), u]
    _expand(bits, po, order, skip=1 << v | 1 << u)
    checkpoint = po.arcs_snapshot()
    _finish_leftovers(g, po, skip=1 << u)
    for w in _members(bits[u]):
        if not po.oriented(u, w):
            po.orient(u, w)
    o = Orientation.from_arcs(g, [po.arc[e] for e in range(g.m)])
    return ClawfreeTrace(o, "cut_vertex", checkpoint_arcs=checkpoint, source=u)


def centre_case(t: Graph) -> str:
    """How a tree's centre sits under its automorphisms, with D not counted.

    CENTRAL_VERTEX for a centre vertex.  A centre edge (a, b) is
    CENTRAL_EDGE_SWAPPED exactly when its two halves have one shape
    (HungTree.halves), else CENTRAL_EDGE_FIXED.  The codes are t.hung's,
    which tree_case then counts.
    """
    try:
        hung = t.hung
    except ValueError:
        raise ValueError("tree_case requires a tree") from None
    if t.n < 3:
        raise ValueError("tree_case requires at least three vertices")
    if hung.centre.kind == "vertex":
        return CENTRAL_VERTEX
    shapes, codes = hung.shape
    half_a, half_b = hung.halves(shapes.codes, codes)
    return CENTRAL_EDGE_SWAPPED if half_a == half_b else CENTRAL_EDGE_FIXED


def tree_case(t: Graph) -> TreeCase:
    """Classify a tree by its centre and the central-edge swap, and count D.

    The tree is hung once from its first centre vertex a (t.hung), and
    every answer is counted in its one ShapeTable (HungTree.shape).  The
    case comes from centre_case.  When no automorphism moves a, D is the
    rooted index at a.  A swapped centre edge (a, b) is broken exactly
    when its halves get inequivalent colourings, so D is the least width
    with at least two classes for a half: its rooted index r when the
    optimal class is not unique, else r + 1, since one more colour
    always adds a class.
    """
    kind = centre_case(t)
    hung = t.hung
    shapes, codes = hung.shape
    if kind != CENTRAL_EDGE_SWAPPED:
        return TreeCase(kind, hung.centre, shapes.index(codes[hung.root]))
    half = codes[hung.centre.vertices[1]]
    r = shapes.index(half)
    unique = shapes.count(half, r) == 1
    return TreeCase(kind, hung.centre, r + unique, unique)


def tree_od_values(t: Graph) -> tuple[int, int, TreeCase]:
    """Orientation extremes of a tree from its case analysis alone.

    The centre-fixed cases give (ceil(D/2), D) for D the tree's
    distinguishing index; a swapped central edge with a unique optimal
    half colouring lowers both by replacing D with D-1.
    """
    case = tree_case(t)
    d = case.dprime - bool(case.unique_optimal)  # set only when swapped
    return ceil(d / 2), d, case
