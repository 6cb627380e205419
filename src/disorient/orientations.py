"""Sweeps over all orientations of a graph: extremes of the index.

An orientation is encoded as an integer direction vector (bit i set
means edge i is reversed relative to its canonical direction), so the
2^m orientations are the integers 0..2^m-1.  Sweeps walk one
representative per symmetry orbit: two vectors related by a graph
automorphism carry isomorphic orientations and share every value
computed here.

Orbits are always exact, whatever the size of the automorphism group,
with no fallback: each orbit is everything its least vector reaches
under the actions of a generating set of the group.  It is
walked only when the sweep gets to it, so a sweep that stops early
never pays for the orbits it skips.  Sweeps refuse to start above a
configurable edge cap rather than silently take exponential time.

Aut(o) is the stabiliser of o's direction vector in Aut(g), so
|Aut(o)| = |Aut(g)| / |orbit| and the sweeps decide two kinds of
representative with no colouring search.  An orbit of size |Aut(g)| is
rigid: index 1, constant colouring.  An orbit of size 1 has
Aut(o) = Aut(g) and takes the graph's own result, witness included,
since the candidate order and the twin classes are the same.  For a
tree that result is the ceiling below: no automorphism of the tree
then swaps its centre vertices, as a swap reverses the central arc.

The representatives of a tree are counted, not searched: every
automorphism of an oriented tree fixes its centre vertices, so its
index is a rooted count over directed shape classes.  The tree is hung
from its first centre vertex once per graph (Graph.hung), and each
representative's shape code comes straight from its direction vector.
A tree's witness colourings are found on first read, not by the sweep:
od_minus and od_plus find theirs before they return, and ODResult the
first time colouring_min or colouring_max is read.  Each comes from the
same rooted classes, in the search's candidate order at the counted
width, so it is the search's first hit.

A tree's group needs no search either: it comes from the same hung
tree's codes (groups.tree_automorphism_generators).  The orbits, and so
every sweep's output, depend only on the group, not on which generators
stand for it.

A sweep stops once each extreme it was asked for reaches a proven
bound, and no later representative can beat the first to reach it:

- Floor, for every graph: p >= 2 leaves at one support, a twin class
  with one neighbour (search.twin_classes), have at least ceil(p/2)
  arcs pointing the same way in any orientation.  Swapping two of those
  leaves is an automorphism of the orientation that swaps the two arcs,
  so a distinguishing colouring gives those arcs pairwise distinct
  colours.  The least index is at least the largest such ceil(p/2), and
  at least 1.
- Ceiling, for a tree: every automorphism of an oriented tree fixes the
  first centre vertex c, so it is a root-preserving automorphism of the
  undirected tree hung from c, and a colouring that breaks all of those
  breaks it; the index is at most that rooted index.  The orientation
  with every arc pointing away from c keeps every root-preserving
  automorphism, so it reaches the bound.  For any other graph the
  ceiling is D'(g), since Aut(o) lies in Aut(g).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .distinguishing import Colouring, dprime, oriented_tree_colouring
from .graphs import (Graph, Orientation, ShapeTable, encode_digraph6,
                     encode_graph6, is_connected)
from .groups import (Permutation, automorphism_generators, edge_action,
                     orbit_minima, tree_automorphism_generators)
from .search import code_rows, twin_classes

DEFAULT_EDGE_CAP = 20


class EdgeCapError(RuntimeError):
    """An orientation sweep was requested above the edge cap."""

    def __init__(self, m: int, cap: int):
        super().__init__(
            f"sweeping 2^{m} orientations exceeds the edge cap {cap}; "
            "raise the cap to force the sweep")
        self.m = m
        self.cap = cap


@dataclass(frozen=True)
class ODResult:
    """Extremes of the distinguishing index over all orientations.

    Witnesses are the least direction vectors attaining each extreme,
    with an optimal colouring for each.  A colouring is found the first
    time it is read: a tree's sweep counts its values and keeps none, so
    a colouring never read is never looked for.  What is read is the
    search's first hit at the counted width, as od_minus and od_plus
    return it.
    """

    od_minus: int
    od_plus: int
    witness_min: Orientation
    witness_max: Orientation
    _found: tuple[Colouring | None, Colouring | None] = field(
        repr=False, compare=False)

    @cached_property
    def colouring_min(self) -> Colouring:
        return _witnessed(self.od_minus, self.witness_min, self._found[0])[2]

    @cached_property
    def colouring_max(self) -> Colouring:
        return _witnessed(self.od_plus, self.witness_max, self._found[1])[2]


def _orbit_reps(g: Graph, edge_cap: int,
                group: tuple[tuple[Permutation, ...], int] | None = None,
                ) -> Iterator[tuple[int, int, int]]:
    """(least vector, orbit size, |Aut(g)|) of each orbit under Aut(g).

    Vectors come in ascending order, from groups.orbit_minima over the
    generators' edge actions.  group is Aut(g) as generators and order,
    found by the generic search when not given; the output depends only
    on the group, not on which generators stand for it.
    """
    if g.m > edge_cap:
        raise EdgeCapError(g.m, edge_cap)
    gens, order = group or automorphism_generators(g)
    for v, size in orbit_minima(g.m, [edge_action(g, p) for p in gens]):
        yield v, size, order


def enumerate_orientations(g: Graph, *,
                           edge_cap: int = DEFAULT_EDGE_CAP) -> list[Orientation]:
    """All orientations, one per symmetry orbit.

    Orbit representatives are the least direction vectors, ascending.
    """
    return [Orientation(g, v) for v, _, _ in _orbit_reps(g, edge_cap)]


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise ValueError("orientation sweeps require a connected graph")


def _pendant_floor(g: Graph) -> int:
    """Largest ceil(p/2) over p >= 2 leaves at one support, at least 1.

    No orientation's index is below it (see the module docstring).
    """
    rows = code_rows(g)
    return max([1] + [(len(c) + 1) // 2 for c in twin_classes(rows)
                      if len(rows[c[0]]) == 1])


def _sweep(g: Graph, edge_cap: int, *, least: bool = True, greatest: bool = True):
    """Least and greatest index over orbit representatives, with witnesses.

    Returns two (value, orientation, colouring) triples, None for an
    extreme not asked for; each keeps the first representative attaining
    its extreme.  The walk ends once each extreme asked for reaches its
    bound: the least the pendant floor, the greatest the ceiling, which
    is the rooted index of the undirected tree at its centre for a tree,
    D'(g) for another graph and 1 for a single edge.  Each bound is
    proven in the module docstring, so no representative past the stop
    could beat the one kept.  Only representatives whose orbit size is
    neither |Aut(g)| nor 1 are evaluated; the rigid case is tested
    first, which covers a rigid graph, the single edge and m = 0.  An
    orbit of size 1 has Aut(o) = Aut(g) and takes the ceiling.  A tree's
    values are counted from direction vectors in a table of the sweep's
    own, its group and ceiling come from g.hung, and its colouring is
    None until _witnessed finds it.  Any other graph's values are
    searched, D'(g) at most once.  g must be connected, so m = n - 1
    tells a tree.
    """
    def search(x):
        r = dprime(x)
        return r.value, r.witness

    group = None
    if g.m == g.n - 1 and g.n > 2:
        hung = g.hung
        group = tree_automorphism_generators(hung)
        own_shapes, codes = hung.shape
        own = own_shapes.index(codes[hung.root]), None
        shapes = ShapeTable()  # the sweep's own, gone when it ends

        def evaluate(v):
            return shapes.index(hung.codes(shapes.codes, v)[hung.root]), None
    else:
        def evaluate(v):
            return search(Orientation(g, v))
        own = search(g) if greatest and g.n != 2 else None
    floor = _pendant_floor(g)
    ceiling = own[0] if own else 1
    rigid = 1, Colouring.constant(g.m)
    lo = hi = None
    for v, size, order in _orbit_reps(g, edge_cap, group):
        if size == order:
            value, colouring = rigid
        elif size == 1:
            own = own or search(g)
            value, colouring = own
        else:
            value, colouring = evaluate(v)
        if lo is None or value < lo[0]:
            lo = value, v, colouring
        if hi is None or value > hi[0]:
            hi = value, v, colouring
        if (not least or lo[0] == floor) and (not greatest or hi[0] == ceiling):
            break
    assert lo is not None and hi is not None
    return tuple((value, Orientation(g, v), colouring) if asked else None
                 for asked, (value, v, colouring) in ((least, lo), (greatest, hi)))


def _witnessed(value: int, o: Orientation, colouring: Colouring | None):
    """(value, o, colouring), with a tree's colouring found if still None.

    The colouring found is the first distinguishing candidate at the
    counted width, in the search's order.  Only a wrong count could
    leave none, and that raises instead of returning None.
    """
    if colouring is None:
        colouring = oriented_tree_colouring(o, value)
        if colouring is None:
            raise AssertionError(
                f"no colouring of width {value} distinguishes orientation "
                f"{encode_digraph6(o)} of tree {encode_graph6(o.base)}")
    return value, o, colouring


def od_minus(g: Graph, *, edge_cap: int = DEFAULT_EDGE_CAP) -> tuple[int, Orientation, Colouring]:
    """Least distinguishing index over all orientations, with witnesses."""
    _require_connected(g)
    return _witnessed(*_sweep(g, edge_cap, greatest=False)[0])


def od_plus(g: Graph, *, edge_cap: int = DEFAULT_EDGE_CAP) -> tuple[int, Orientation, Colouring]:
    """Greatest distinguishing index over all orientations, with witnesses."""
    _require_connected(g)
    return _witnessed(*_sweep(g, edge_cap, least=False)[1])


def od_extremes(g: Graph, *, edge_cap: int = DEFAULT_EDGE_CAP) -> ODResult:
    """Both extremes in one sweep."""
    _require_connected(g)
    lo, hi = _sweep(g, edge_cap)
    return ODResult(od_minus=lo[0], od_plus=hi[0],
                    witness_min=lo[1], witness_max=hi[1],
                    _found=(lo[2], hi[2]))


def find_rigid_orientation(g: Graph, *,
                           edge_cap: int = DEFAULT_EDGE_CAP) -> Orientation | None:
    """First orientation, in representative order, with a trivial group.

    That is the first representative whose orbit has |Aut(g)| elements;
    no colouring or stabiliser search is made.  Returns None when every
    orientation keeps some symmetry, which by the sweep's exactness
    means the minimum index over orientations exceeds 1.
    """
    _require_connected(g)
    for v, size, order in _orbit_reps(g, edge_cap):
        if size == order:
            return Orientation(g, v)
    return None
