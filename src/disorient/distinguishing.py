"""Distinguishing index of graphs and orientations by exact search.

An edge (or arc) colouring is distinguishing when no automorphism except
the identity preserves it; the distinguishing index is the least number
of colours for which one exists.  A single undirected edge has no such
colouring, so that graph is rejected.

The search never materialises the automorphism group.  Candidate
colourings are enumerated level by level (exactly k distinct colours at
level k) in restricted-growth form, which picks one representative per
colour-renaming class, and each candidate gets a colour-aware
backtracking stabiliser test.  Three exact devices keep the search
short; none changes the value or the witness:

- The input is refined once.  A partition equitable for a colouring is
  equitable for the uncoloured structure, so it refines the uncoloured
  labels, and each candidate's refinement starts from them and reaches
  the cells the unit partition gives, on rows built from the edges.
- Automorphisms that defeated earlier candidates are kept as their
  moved (edge, image) pairs and replayed before the full test, the one
  that last rejected a candidate first: consecutive candidates differ
  in their last positions, so it usually rejects the next one too.
  The first 64 distinct ones are kept, in the order found, so the set
  replayed, and the candidates it rejects, do not depend on the order.
- Twins bound the walk.  t >= 2 twins (search.twin_classes: equal code
  rows, in a graph or an orientation alike) with the neighbourhood N
  need t distinct colour vectors on N, so no width k with k ** |N| < t
  has a witness.  And they come in order.  Let u < v be consecutive
  twins with neighbours x_0 < x_1 < ...; swapping them is a symmetry s.
  The first distinguishing restricted-growth string c with exactly k
  colours has c <= RGS(c.s) <= c.s, as c.s distinguishes with the same
  colours and renaming them in order of first use gives no later
  string.  c and c.s differ only on the edges x u and x v; in edge
  order x u comes before x v and each family ascends in x, so u's
  colour vector on the x_j is lexicographically below v's, strictly,
  since equal vectors would let s keep c.  That comparison reads only
  edges before x_j v, so the walk bounds x_j v from below as it reaches
  it, at every width.  Leaves at one support are the case |N| = 1:
  their colours strictly increase.

Rooted and oriented trees are counted, not searched: the distinguishing
colourings of a rooted tree, up to root-preserving automorphisms, have
a closed-form count over the shape classes of each vertex's children,
and an oriented tree is a rooted one, hung from its centre, whose
classes also carry the arc directions.  An oriented tree's witness
needs no stabiliser search either: a colouring distinguishes it exactly
when, at every vertex, the children's coloured classes are distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import (Graph, HungTree, Orientation, ShapeTable, hang,
                     is_connected, is_tree)
from .groups import Permutation, edge_action, is_automorphism
from .search import code_rows, equitable_labels, nontrivial_map, twin_classes

_BREAKER_CACHE_LIMIT = 64


@dataclass(frozen=True)
class Colouring:
    """Colours 1..width assigned to edges in canonical edge-list order."""

    width: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("colouring width must be at least 1")
        if any(not 1 <= c <= self.width for c in self.assignment):
            raise ValueError("colour out of range for the declared width")

    @classmethod
    def constant(cls, m: int) -> Colouring:
        return cls(1, (1,) * m)


@dataclass(frozen=True)
class DprimeResult:
    """A distinguishing index together with a witness colouring."""

    value: int
    witness: Colouring


@dataclass(frozen=True)
class RootedTree:
    """A tree with a marked root vertex."""

    tree: Graph
    root: int

    def __post_init__(self) -> None:
        if not is_tree(self.tree):
            raise ValueError("underlying graph is not a tree")
        if not 0 <= self.root < self.tree.n:
            raise ValueError("root out of range")


def _coloured_base(x: Graph | Orientation, colouring: Colouring) -> Graph:
    """x's underlying graph, once the colouring is checked to fit its edges."""
    g = x.base if isinstance(x, Orientation) else x
    if len(colouring.assignment) != g.m:
        raise ValueError("colouring length does not match the edge count")
    return g


def preserves(x: Graph | Orientation, colouring: Colouring, p: Permutation) -> bool:
    """Whether p is an automorphism of x that also fixes every colour class."""
    g = _coloured_base(x, colouring)
    if not is_automorphism(x, p):
        return False
    perm = edge_action(g, p)[0]
    return all(colouring.assignment[perm[i]] == c
               for i, c in enumerate(colouring.assignment))


def colour_preserving_automorphism(
        x: Graph | Orientation, colouring: Colouring) -> Permutation | None:
    """Least non-identity automorphism preserving the colouring, if any."""
    _coloured_base(x, colouring)
    img = nontrivial_map(code_rows(x, colouring.assignment))
    return None if img is None else Permutation(img)


def is_distinguishing(x: Graph | Orientation, colouring: Colouring) -> bool:
    return colour_preserving_automorphism(x, colouring) is None


def dprime(x: Graph | Orientation) -> DprimeResult:
    """Exact distinguishing index with a deterministic witness colouring.

    The witness is the first hit in a fixed enumeration order, so equal
    inputs always produce identical output.
    """
    _require_index_input(x)
    result = _dprime_search(x)
    assert result is not None
    return result


def dprime_at_most(x: Graph | Orientation, k: int) -> DprimeResult | None:
    """Result if the distinguishing index is at most k, else None."""
    _require_index_input(x)
    if k < 1:
        return None  # no index is below 1
    return _dprime_search(x, max_width=k)


def _require_index_input(x: Graph | Orientation) -> None:
    """Reject what has no distinguishing index: a disconnected graph or K2."""
    g = x.base if isinstance(x, Orientation) else x
    if not is_connected(g):
        raise ValueError("distinguishing index requires a connected graph")
    if isinstance(x, Graph) and g.n == 2:
        raise ValueError(
            "the distinguishing index of a single undirected edge is undefined")


def _root_code(rt: RootedTree, shapes: ShapeTable) -> int:
    hung = hang(rt.tree, rt.root)
    return hung.codes(shapes.codes, hung.away)[rt.root]


def rooted_index(rt: RootedTree) -> int:
    """Least width breaking every non-trivial root-preserving automorphism."""
    shapes = ShapeTable()
    return shapes.index(_root_code(rt, shapes))


def count_optimal_rooted_colourings(rt: RootedTree, width: int | None = None) -> int:
    """Number of inequivalent distinguishing colourings at optimal width.

    Colourings are identified when a root-preserving automorphism maps
    one onto the other keeping colour values.  Another width may be
    given; below the optimum the count is 0.
    """
    shapes = ShapeTable()
    code = _root_code(rt, shapes)
    return shapes.count(code, shapes.index(code) if width is None else width)


def oriented_tree_index(o: Orientation) -> int:
    """Distinguishing index of an oriented tree, counted.

    Every automorphism of an oriented tree fixes both centre vertices,
    since swapping the ends of a central edge would reverse its arc, so
    the index is the rooted index at a centre vertex with each arc's
    direction in its child's key.
    """
    shapes = ShapeTable()
    hung = o.base.hung
    return shapes.index(hung.codes(shapes.codes, o.vector)[hung.root])


def oriented_tree_colouring(o: Orientation, width: int) -> Colouring | None:
    """First distinguishing colouring of an oriented tree with width colours.

    Candidates come in dprime's order, so at the index (which
    oriented_tree_index counts) this is dprime's witness for a tree with
    an edge; None when no candidate distinguishes.  Hung from a centre
    vertex, which every automorphism fixes, a colouring distinguishes o
    exactly when its rooted classes do (see _classes_distinct), so no
    stabiliser search is made.
    """
    hung = o.base.hung
    rows = code_rows(o)
    order = _twin_rules(o.base, rows, twin_classes(rows))[1]
    for assignment in _candidate_strings(o.base.m, width, order):
        if _classes_distinct(hung, o.vector, assignment):
            return Colouring(width, assignment)
    return None


def _classes_distinct(hung: HungTree, vec: int, assignment) -> bool:
    """Whether, at every vertex, the children's keys are pairwise distinct.

    A child's key is its arc's colour, its arc's direction and the class
    of its coloured subtree, interned bottom-up as in HungTree.codes.
    Two children with one key swap, subtrees and all, by a
    root-preserving automorphism that keeps every colour; when no vertex
    has two, such an automorphism maps each child to itself, so by
    induction it is the identity.
    """
    keys: list[list[tuple[int, int, int]]] = [[] for _ in range(hung.n)]
    table: dict[tuple, int] = {}
    for v, p, i, below in hung.steps:
        kv = keys[v]
        if len(set(kv)) < len(kv):
            return False
        code = table.setdefault(tuple(sorted(kv)), len(table))
        keys[p].append((assignment[i], vec >> i & 1 ^ below, code))
    kr = keys[hung.root]
    return len(set(kr)) == len(kr)


def _twin_rules(g: Graph, rows, twins) -> tuple[int, tuple[tuple, ...]]:
    """The first width and the twin order of the module docstring.

    rows are the code rows of g or of an orientation of it, and twins
    their twin classes.  For consecutive members u < v with neighbours
    x_0 < x_1 < ..., edge x_j v gets (us, vs, strict): u's edges to
    x_0..x_j, v's edges to x_0..x_(j-1), and whether x_j is the last.
    Where us[:-1] and vs agree, x_j v takes at least us[-1] + strict.
    """
    floor = 2
    order = [()] * g.m
    for members in twins:
        nbrs = [x for x, _ in rows[members[0]]]
        while floor ** len(nbrs) < len(members):
            floor += 1
        for u, v in zip(members, members[1:]):
            us = tuple(g.index_of(x, u) for x in nbrs)
            vs = tuple(g.index_of(x, v) for x in nbrs)
            for j, i in enumerate(vs):
                order[i] += ((us[:j + 1], vs[:j], j == len(nbrs) - 1),)
    return floor, tuple(order)


def _candidate_strings(m: int, k: int, order) -> Iterator[tuple[int, ...]]:
    """Restricted-growth strings of length m with exactly k values.

    Each position keeps the twin comparisons order lists for it.
    Strings come in lexicographic order.  The walk is iterative, so a
    string costs the positions that change from the one before, not m
    generator frames.
    """
    if m < k:
        return
    assignment = [0] * m
    most = [0] * (m + 1)  # most[i]: the largest value among positions < i
    i = 0
    while i >= 0:
        c = assignment[i] + 1
        top = most[i] + 1 if most[i] < k else k
        for us, vs, strict in order[i]:
            least = assignment[us[-1]] + strict
            if least > c and all(assignment[a] == assignment[b]
                                 for a, b in zip(us, vs)):
                c = least
        if c > top:
            assignment[i] = 0
            i -= 1
            continue
        assignment[i] = c
        mx = most[i] if c <= most[i] else c
        if mx + (m - i - 1) < k:
            continue  # too few positions left to reach k values
        if i + 1 == m:
            yield tuple(assignment)
        else:
            most[i + 1] = mx
            i += 1


def _moved(eperm: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i, j in enumerate(eperm) if i != j)


def _dprime_search(x: Graph | Orientation, *,
                   max_width: int | None = None) -> DprimeResult | None:
    """First distinguishing colouring from the least width that can have one.

    The three devices of the module docstring, in turn: plain holds the
    uncoloured equitable labels, the start of every candidate's
    refinement; cache holds the replayed breakers, most recent hit
    first, and admitted the set of them; _twin_rules gives the first
    width and the twin order.
    """
    g = x.base if isinstance(x, Orientation) else x
    m = g.m
    if m == 0:
        return DprimeResult(1, Colouring(1, ()))
    rows = code_rows(x)
    plain = equitable_labels(rows)
    breaker = nontrivial_map(rows, plain)
    if breaker is None:
        return DprimeResult(1, Colouring.constant(m))

    floor, order = _twin_rules(g, rows, twin_classes(rows))
    first = _moved(edge_action(g, Permutation(breaker))[0])
    cache = [first]
    admitted = {first}
    top = m if max_width is None else min(m, max_width)
    for k in range(floor, top + 1):
        for assignment in _candidate_strings(m, k, order):
            for pos, pairs in enumerate(cache):
                for i, j in pairs:
                    if assignment[i] != assignment[j]:
                        break
                else:
                    if pos:
                        cache.insert(0, cache.pop(pos))
                    break
            else:
                rows = code_rows(x, assignment)
                img = nontrivial_map(rows, equitable_labels(rows, plain))
                if img is None:
                    return DprimeResult(k, Colouring(k, assignment))
                if len(admitted) < _BREAKER_CACHE_LIMIT:
                    pairs = _moved(edge_action(g, Permutation(img))[0])
                    if pairs not in admitted:
                        admitted.add(pairs)
                        cache.insert(0, pairs)
    if max_width is None:
        raise AssertionError("no distinguishing colouring found at any width")
    return None
