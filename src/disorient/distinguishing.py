"""Distinguishing index of graphs and orientations by exact search.

An edge (or arc) colouring is distinguishing when no automorphism except
the identity preserves it; the distinguishing index is the least number
of colours for which one exists.  A single undirected edge has no such
colouring, so that graph is rejected.

The search never materialises the automorphism group.  Candidate
colourings are enumerated level by level (exactly k distinct colours at
level k) in restricted-growth form, which picks one representative per
colour-renaming class, and each candidate gets a colour-aware
backtracking stabiliser test.  Leaves at one support, with their arcs
one way for an orientation, are twins (search.twin_classes), so their
edges must receive pairwise distinct colours.  Three exact devices keep
a candidate cheap; none changes the value or the witness:

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
- The first width is a lower bound on the index.  t >= 2 twins with
  the neighbourhood N, in a graph or an orientation alike, need t
  distinct colour vectors on N in a distinguishing colouring, so
  k ** |N| >= t.  No width below the index has a witness to find.

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
    prior = _prior_twins(o.base, rows, twin_classes(rows))
    for assignment in _candidate_strings(o.base.m, width, prior):
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


def _prior_twins(g: Graph, rows, twins) -> tuple[tuple[int, ...], ...]:
    """For each edge, the earlier edges it must not share a colour with.

    rows are the code rows of g or of an orientation of it, and twins
    their twin classes.  A class with one neighbour s is a set of leaves
    at s, with their arcs one way for an orientation, so its edges to s
    are permuted freely and get pairwise distinct colours.
    """
    prior = [()] * g.m
    for members in twins:
        if len(rows[members[0]]) == 1:
            support = rows[members[0]][0][0]
            edges = [g.index_of(v, support) for v in members]
            for pos, i in enumerate(edges):
                prior[i] = tuple(edges[:pos])
    return tuple(prior)


def _candidate_strings(m: int, k: int,
                       prior: tuple[tuple[int, ...], ...]) -> Iterator[tuple[int, ...]]:
    """Restricted-growth strings of length m with exactly k values.

    Positions listed in prior must differ from their listed partners.
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
        if prior[i]:
            banned = {assignment[j] for j in prior[i]}
            while c in banned:
                c += 1
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


def _width_floor(rows, twins) -> int:
    """A lower bound on the index of a structure that is not rigid.

    The t members of a twin class with the neighbourhood N are permuted
    freely by symmetries that fix every other vertex, so a
    distinguishing colouring gives them t distinct colour vectors on N,
    and the index k has k ** |N| >= t.  Leaves at one support are the
    case |N| = 1.
    """
    floor = 2
    for members in twins:
        while floor ** len(rows[members[0]]) < len(members):
            floor += 1
    return floor


def _moved(eperm: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i, j in enumerate(eperm) if i != j)


def _dprime_search(x: Graph | Orientation, *,
                   max_width: int | None = None) -> DprimeResult | None:
    """First distinguishing colouring from the least width that can have one.

    The three devices of the module docstring, in turn: plain holds the
    uncoloured equitable labels, the start of every candidate's
    refinement; cache holds the replayed breakers, most recent hit
    first, and admitted the set of them; _width_floor gives the first
    width.
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

    twins = twin_classes(rows)
    prior = _prior_twins(g, rows, twins)
    first = _moved(edge_action(g, Permutation(breaker))[0])
    cache = [first]
    admitted = {first}
    top = m if max_width is None else min(m, max_width)
    for k in range(_width_floor(rows, twins), top + 1):
        for assignment in _candidate_strings(m, k, prior):
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
