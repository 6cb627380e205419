"""Backtracking search for the symmetries of a coloured (di)graph.

One engine serves automorphism enumeration, rigidity tests and
stabiliser checks for coloured structures.  Adjacency, arc direction and
colour are folded into one small nonzero integer per adjacent ordered
vertex pair, and every search takes the code rows that code_rows builds
from the edges or arcs: each vertex's (neighbour, code) pairs, code 0
standing for every pair not listed.  A symmetry phi must carry each
pair (u, v) with code c onto a pair (phi(u), phi(v)) with the same code.
Equal rows make twins (twin_classes), which symmetries permute freely.

Candidate images are pruned by iterated neighbourhood-multiset refinement
over the rows, so a round costs the number of arcs rather than n
squared.  The refinement labels a vertex by the rank of its signature
among the sorted distinct ones, not by first appearance, so the labels
do not depend on vertex numbering.  It is a pure filter for find_maps:
correctness never depends on it.  The labels come from the caller when
it has them: strong_generators refines its rows once for all its
searches, and the index search refines each candidate colouring from
the uncoloured labels.  find_maps alone builds an n-by-n lookup of the
codes, for the pair tests of its backtracking.  Maps are yielded in
lexicographic order of their image tuple, so the identity is always the
first symmetry produced.

canonical_form gives a value that two sets of code rows share exactly
when one relabels the other, by individualisation-refinement (McKay and
Piperno, Practical graph isomorphism II, 2014), with the same
refinement.  The search individualises each vertex of the smallest
non-singleton cell in turn, takes the least certificate over the leaves,
and prunes by the symmetries that pairs of leaves with equal
certificates reveal.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph, Orientation


def code_rows(x: Graph | Orientation, colours=None) -> list[list[tuple[int, int]]]:
    """Each vertex's (neighbour, code) pairs, in edge or arc order.

    Edge i carries code colours[i], or 1 without colours, at both ends;
    an arc carries it at its tail and the negated code at its head.
    """
    if isinstance(x, Orientation):
        n, pairs, back = x.base.n, x.arcs, -1
    else:
        n, pairs, back = x.n, x.edges, 1
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        c = 1 if colours is None else colours[i]
        rows[u].append((v, c))
        rows[v].append((u, back * c))
    return rows


def twin_classes(rows) -> list[list[int]]:
    """Each class of two or more vertices with equal code rows, ascending.

    A row lists its pairs in ascending neighbour order, so equal rows
    mean the same neighbours with the same codes: open twins of a graph,
    vertices with equal out- and equal in-neighbourhoods of an
    orientation.  Members of a class are never adjacent, so any
    permutation of a class that fixes every other vertex is a symmetry.
    """
    classes: dict[tuple, list[int]] = {}
    for v, row in enumerate(rows):
        classes.setdefault(tuple(row), []).append(v)
    return [c for c in classes.values() if len(c) > 1]


def equitable_labels(rows, start=None) -> tuple[int, ...]:
    """Equitable labels of code rows, refined from start.

    start labels the vertices 0..k-1, each label used; by default it is
    the unit partition.  The result has the cells of the coarsest
    equitable partition that refines start.  When start is itself
    refined by that of the unit partition (for example, the labels of
    the same structure without colours), the cells are those the unit
    partition gives.  Codes c with |c| <= M pack as label * (2M + 1) + c,
    which keeps the (label, code) order, negative arc codes included.
    """
    width = 2 * max((abs(c) for row in rows for _, c in row), default=0) + 1
    if start is None:
        label, classes = [0] * len(rows), 1
    else:
        label, classes = list(start), max(start, default=-1) + 1
    return tuple(_equitable(rows, label, classes, width)[0])


def _lookup(rows) -> list[list[int]]:
    """The n-by-n codes of the rows, 0 where two vertices are not adjacent."""
    codes = [[0] * len(rows) for _ in rows]
    for row, out in zip(rows, codes):
        for u, c in row:
            out[u] = c
    return codes


def find_maps(rows, labels=None, *, fixed=()) -> Iterator[tuple[int, ...]]:
    """Yield every bijection phi that keeps the code of every vertex pair.

    rows are code rows, as code_rows builds them; a pair not listed has
    code 0.  labels are the rows' equitable labels, as equitable_labels
    gives them, from a caller that has them; otherwise the rows are
    refined here.  fixed is a sequence of (v, w) pairs pinning
    phi(v) = w.  Maps come out in lexicographic order of the image
    tuple.  Each edge or arc must be listed at both of its ends, with
    the same code or its negation, as code_rows lists it; then a pair
    whose code matches implies the reversed pair's does, so each new
    vertex is tested only against the vertices placed before it.
    """
    n = len(rows)
    label = equitable_labels(rows) if labels is None else labels
    codes = _lookup(rows)
    cell: dict[int, list[int]] = {}
    for w in range(n):
        cell.setdefault(label[w], []).append(w)
    cand = [cell[lab] for lab in label]
    for v, w in fixed:
        if w not in cand[v]:
            return
        cand[v] = [w]

    image = [-1] * n
    used = [False] * n

    def place(v: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(image)
            return
        row = codes[v]
        for w in cand[v]:
            if used[w]:
                continue
            image_row = codes[w]
            for u in range(v):
                if image_row[image[u]] != row[u]:
                    break
            else:
                image[v] = w
                used[w] = True
                yield from place(v + 1)
                used[w] = False
        image[v] = -1

    try:
        yield from place(0)
    finally:
        del place  # the closure refers to itself; break the cycle


def _orbit(point: int, gens) -> list[int]:
    """The images of point under the group that gens generate."""
    orbit = [point]
    for u in orbit:
        for gen in gens:
            if gen[u] not in orbit:
                orbit.append(gen[u])
    return orbit


def strong_generators(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Strong generating set of the symmetries of code rows, and their number.

    Base 0..n-1, levels filled from the deepest up: the generators found
    before level i generate the stabiliser of 0..i, and each point w of
    the orbit of i that they do not yet reach adds the first map pinning
    0..i-1 and sending i to w (Schreier-Sims transversals).  The order
    is the product of the orbit lengths.  The rows are refined once,
    and every search below reuses their labels.
    """
    n = len(rows)
    label = equitable_labels(rows)
    gens: list[tuple[int, ...]] = []
    order = 1
    for i in range(n - 1, -1, -1):
        pinned = tuple((v, v) for v in range(i))
        orbit = [i]
        for w in range(i + 1, n):
            if label[w] != label[i] or w in orbit:
                continue
            img = next(find_maps(rows, label, fixed=pinned + ((i, w),)), None)
            if img is None:
                continue
            gens.append(img)
            orbit = _orbit(i, gens)
        order *= len(orbit)
    return tuple(gens), order


def _equitable(rows, label: list[int], classes: int,
               width: int) -> tuple[list[int], int]:
    """Refine labels 0..classes-1 until a round splits no class.

    rows[v] holds v's (neighbour, code) pairs, the code either raw or an
    index into the sorted distinct codes; width must make label * width +
    code injective and order-keeping on (label, code).  A vertex's key is
    its label and the sorted label * width + code of its pairs, and its
    new label is the rank of that key among the sorted distinct keys.
    A key starts with the old label, so the order between classes is kept
    and the result does not depend on how the vertices are numbered.  A
    vertex alone in its class cannot split, so its pairs are not read.
    Returns the labels and their number.
    """
    n = len(rows)
    while True:
        size = [0] * classes
        for lab in label:
            size[lab] += 1
        keys = [(lab, tuple(sorted([label[u] * width + c for u, c in row]))
                 if size[lab] > 1 else ())
                for lab, row in zip(label, rows)]
        order = sorted(set(keys))
        rank = {key: r for r, key in enumerate(order)}
        label = [rank[key] for key in keys]
        if len(order) == classes or len(order) == n:
            return label, len(order)
        classes = len(order)


def canonical_form(rows) -> tuple:
    """A value two sets of code rows share exactly when one relabels the other.

    Individualisation-refinement: refine to an equitable labelling, then
    individualise in turn each vertex of the smallest non-singleton cell
    (ties broken by label) and recurse.  At a leaf every vertex has its
    own label, and the certificate is the sorted tuple of the relabelled
    (label, label, code) entries, each packed into one integer.  The form
    is the vertex count, the sorted distinct codes and the least
    certificate over all leaves.  Two leaves with equal certificates give
    a symmetry that maps the earlier leaf's path onto the later one, so
    the search goes back to the node where the two paths part.  At every
    node a vertex is skipped when the symmetries found so far that fix
    the path map it to a vertex already tried there.
    """
    n = len(rows)
    values = sorted({c for row in rows for _, c in row})
    index = {c: i for i, c in enumerate(values)}
    width = len(values)
    rows = [[(u, index[c]) for u, c in row] for row in rows]
    autos: list[tuple[int, ...]] = []
    leaves: list = []  # [first, best], each (certificate, label, path)

    def symmetry(other, label, path) -> int:
        # label^-1 . other's label carries the other leaf onto this one
        inv = [0] * n
        for v, p in enumerate(label):
            inv[p] = v
        autos.append(tuple(inv[p] for p in other[1]))
        depth = 0
        while other[2][depth] == path[depth]:
            depth += 1
        return depth

    def search(label: list[int], classes: int, path: list[int]) -> int:
        depth = len(path)
        if classes == n:
            cert = tuple(sorted([(label[v] * n + label[u]) * width + i
                                 for v, row in enumerate(rows) for u, i in row]))
            if not leaves:
                leaves[:] = [(cert, label, path)] * 2
            elif cert == leaves[0][0]:
                return symmetry(leaves[0], label, path)
            elif cert == leaves[1][0]:
                return symmetry(leaves[1], label, path)
            elif cert < leaves[1][0]:
                leaves[1] = (cert, label, path)
            return depth
        size = [0] * classes
        for lab in label:
            size[lab] += 1
        target = size.index(min(s for s in size if s > 1))
        tried: list[int] = []
        for w in range(n):
            if label[w] != target or tried and _reaches(w, tried, autos, path):
                continue
            child = [lab + (lab >= target) for lab in label]
            child[w] = target
            back = search(*_equitable(rows, child, classes + 1, width), path + [w])
            if back < depth:
                return back
            tried.append(w)
        return depth

    search(*_equitable(rows, [0] * n, 1, width), [])
    return n, tuple(values), leaves[1][0]


def _reaches(w: int, targets: list[int], autos, path: list[int]) -> bool:
    """Whether the symmetries in autos that fix path map w into targets."""
    orbit = _orbit(w, [a for a in autos if all(a[v] == v for v in path)])
    return any(t in orbit for t in targets)


def nontrivial_map(rows, labels=None) -> tuple[int, ...] | None:
    """Least non-identity symmetry of code rows, or None.

    labels are passed on to find_maps.  The identity is the
    lexicographically least bijection, so it is always the first map
    yielded; the next one, if any, is the answer.
    """
    it = find_maps(rows, labels)
    if next(it, None) != tuple(range(len(rows))):
        raise AssertionError("identity map must always be valid")
    return next(it, None)
