"""Backtracking search for structure-preserving vertex bijections.

One engine serves automorphism enumeration, rigidity tests, stabiliser
checks for coloured structures, and isomorphism tests between two coloured
structures.  Adjacency, arc direction and colour are folded into one small
integer per ordered vertex pair (an n-by-n code matrix); a valid map phi
must satisfy dst[phi(u)][phi(v)] == src[u][v] for all pairs.

Candidate images are pruned by iterated neighbourhood-multiset refinement
over sparse rows: each vertex keeps only its nonzero (neighbour, code)
pairs, so a round costs the number of arcs rather than n squared.  When
both sides are one matrix (automorphisms, rigidity and stabiliser tests)
the refinement runs on that side alone.  It is a pure filter: correctness
never depends on it.  Maps are yielded in lexicographic order of their
image tuple, so the identity is always the first automorphism produced.

canonical_form gives a value that two code matrices share exactly when
one relabels the other, by individualisation-refinement (McKay and
Piperno, Practical graph isomorphism II, 2014).  Its refinement labels a
vertex by the rank of its signature among the sorted distinct ones, not
by first appearance, so the labels do not depend on vertex numbering.
The search individualises each vertex of the smallest non-singleton
cell in turn, takes the least certificate over the leaves, and prunes
by the symmetries that pairs of leaves with equal certificates reveal.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph, Orientation


def graph_codes(g: Graph, colours=None) -> list[list[int]]:
    n = g.n
    mat = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(g.edges):
        c = 1 if colours is None else colours[i]
        mat[u][v] = c
        mat[v][u] = c
    return mat


def orientation_codes(o: Orientation, colours=None) -> list[list[int]]:
    # Reverse direction is marked by the negated colour code.
    n = o.base.n
    mat = [[0] * n for _ in range(n)]
    for i, (t, h) in enumerate(o.arcs):
        c = 1 if colours is None else colours[i]
        mat[t][h] = c
        mat[h][t] = -c
    return mat


def codes_for(x: Graph | Orientation, colours=None) -> list[list[int]]:
    if isinstance(x, Orientation):
        return orientation_codes(x, colours)
    return graph_codes(x, colours)


def _sparse_rows(codes: list[list[int]]) -> list[list[tuple[int, int]]]:
    """Each vertex's nonzero (neighbour, code) pairs."""
    return [[(u, c) for u, c in enumerate(row) if c and u != v]
            for v, row in enumerate(codes)]


def _signatures(rows, label: list[int]) -> list[tuple]:
    return [(label[v], tuple(sorted([(label[u], c) for u, c in row])))
            for v, row in enumerate(rows)]


def _refine(src: list[list[int]], dst: list[list[int]]):
    """Stable joint vertex labelling; None when label multisets diverge.

    A vertex's signature is its label and the sorted (label, code) pairs
    of its nonzero codes.  The zero codes need not be counted: the label
    multisets of both sides agree after every round, so the class sizes
    imply them.  When src is dst one side is computed and serves as both.
    """
    n = len(src)
    rows_s = _sparse_rows(src)
    rows_d = rows_s if dst is src else _sparse_rows(dst)
    lab_s = lab_d = [0] * n
    classes = 1
    while True:
        table: dict[tuple, int] = {}
        new_s = [table.setdefault(sig, len(table))
                 for sig in _signatures(rows_s, lab_s)]
        if dst is src:
            new_d = new_s
        else:
            new_d = [table.get(sig) for sig in _signatures(rows_d, lab_d)]
            if None in new_d or sorted(new_s) != sorted(new_d):
                return None
        lab_s, lab_d = new_s, new_d
        if len(table) == classes or len(table) == n:
            return lab_s, lab_d
        classes = len(table)


def find_maps(src: list[list[int]], dst: list[list[int]], *,
              fixed=()) -> Iterator[tuple[int, ...]]:
    """Yield every bijection phi with dst[phi(u)][phi(v)] == src[u][v].

    fixed is a sequence of (v, w) pairs pinning phi(v) = w.  Maps come out
    in lexicographic order of the image tuple.  Pass one matrix as both
    arguments for symmetries: refinement then runs on one side only.
    """
    n = len(src)
    if len(dst) != n:
        return
    refined = _refine(src, dst)
    if refined is None:
        return
    lab_s, lab_d = refined
    by_label: dict[int, list[int]] = {}
    for w in range(n):
        by_label.setdefault(lab_d[w], []).append(w)
    cand: list[list[int]] = []
    for v in range(n):
        cand.append(list(by_label.get(lab_s[v], ())))
    for v, w in fixed:
        cand[v] = [w] if w in cand[v] else []
    for v in range(n):
        if not cand[v]:
            return

    image = [-1] * n
    used = [False] * n

    def place(v: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(image)
            return
        src_row = src[v]
        src_col = [src[u][v] for u in range(v)]
        for w in cand[v]:
            if used[w]:
                continue
            dst_row = dst[w]
            ok = True
            for u in range(v):
                iu = image[u]
                if dst_row[iu] != src_row[u] or dst[iu][w] != src_col[u]:
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                yield from place(v + 1)
                used[w] = False
        image[v] = -1

    try:
        yield from place(0)
    finally:
        del place  # the closure refers to itself; break the cycle


def strong_generators(codes: list[list[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Strong generating set of the symmetries of a code matrix, and their number.

    Base 0..n-1, levels filled from the deepest up: the generators found
    before level i generate the stabiliser of 0..i, and each point w of
    the orbit of i that they do not yet reach adds the first map pinning
    0..i-1 and sending i to w (Schreier-Sims transversals).  The order
    is the product of the orbit lengths.
    """
    n = len(codes)
    label = _refine(codes, codes)[0]
    gens: list[tuple[int, ...]] = []
    order = 1
    for i in range(n - 1, -1, -1):
        pinned = tuple((v, v) for v in range(i))
        orbit = [i]
        for w in range(i + 1, n):
            if label[w] != label[i] or w in orbit:
                continue
            img = next(find_maps(codes, codes, fixed=pinned + ((i, w),)), None)
            if img is None:
                continue
            gens.append(img)
            for u in orbit:
                for gen in gens:
                    if gen[u] not in orbit:
                        orbit.append(gen[u])
        order *= len(orbit)
    return tuple(gens), order


def _equitable(rows, label: list[int], classes: int,
               width: int) -> tuple[list[int], int]:
    """Refine labels 0..classes-1 until a round splits no class.

    rows[v] holds v's (neighbour, code index) pairs.  A vertex's key is
    its label and the sorted label * width + code index of its pairs, and
    its new label is the rank of that key among the sorted distinct keys.
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
        keys = [(lab, tuple(sorted([label[u] * width + i for u, i in row]))
                 if size[lab] > 1 else ())
                for lab, row in zip(label, rows)]
        order = sorted(set(keys))
        rank = {key: r for r, key in enumerate(order)}
        label = [rank[key] for key in keys]
        if len(order) == classes or len(order) == n:
            return label, len(order)
        classes = len(order)


def canonical_form(codes: list[list[int]]) -> tuple:
    """A value equal for two code matrices exactly when one relabels the other.

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
    the path map it to a vertex already tried there.  The diagonal is not
    read.
    """
    n = len(codes)
    sparse = _sparse_rows(codes)
    values = sorted({c for row in sparse for _, c in row})
    index = {c: i for i, c in enumerate(values)}
    width = len(values)
    rows = [[(u, index[c]) for u, c in row] for row in sparse]
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
    gens = [a for a in autos if all(a[v] == v for v in path)]
    orbit = [w]
    for u in orbit:
        for a in gens:
            if a[u] not in orbit:
                orbit.append(a[u])
    return any(t in orbit for t in targets)


def nontrivial_map(codes: list[list[int]]) -> tuple[int, ...] | None:
    """Least non-identity symmetry of a code matrix, or None.

    The identity is the lexicographically least bijection, so it is always
    the first map yielded; the next one, if any, is the answer.
    """
    it = find_maps(codes, codes)
    if next(it, None) != tuple(range(len(codes))):
        raise AssertionError("identity map must always be valid")
    return next(it, None)
