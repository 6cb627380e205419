"""Reference implementations used to pin expected values in the tests.

Everything here recomputes results from first principles and shares no
search machinery with the package: automorphisms come from filtering
vertex permutations, index values from trying every colouring against
that list, orientation extremes from sweeping every direction vector,
and rooted-tree counts from an explicit enumeration plus explicit
symmetry application.  Slow on purpose; scoped to tiny inputs.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import factorial

from disorient.graphs import Graph, Orientation


# ---------------------------------------------------------------------------
# Automorphisms and distinguishing indices by exhaustion


def brute_automorphism_images(x) -> list[tuple[int, ...]]:
    """All automorphisms as image tuples, by filtering every permutation."""
    if isinstance(x, Orientation):
        n = x.base.n
        arcs = set(x.arcs)
        keep = lambda img: all((img[t], img[h]) in arcs for t, h in arcs)
    else:
        n = x.n
        edges = {frozenset(e) for e in x.edges}
        keep = lambda img: all(
            frozenset((img[u], img[v])) in edges for u, v in edges)
    return [img for img in permutations(range(n)) if keep(img)]


def edge_perm_of(g: Graph, img) -> tuple[int, ...]:
    """Edge-index permutation induced by an automorphism's image tuple."""
    return tuple(g.index_of(img[u], img[v]) for u, v in g.edges)


def brute_colour_preserving_images(x, colours) -> list[tuple[int, ...]]:
    """Automorphisms sending every edge to an edge of the same colour."""
    g = x.base if isinstance(x, Orientation) else x
    out = []
    for img in brute_automorphism_images(x):
        ep = edge_perm_of(g, img)
        if all(colours[ep[i]] == colours[i] for i in range(g.m)):
            out.append(img)
    return out


def colour_keeping_map(g: Graph, colours) -> tuple[int, ...] | None:
    """First vertex permutation but the identity, in lexicographic order,
    that sends every edge to an edge of the same colour, or None."""
    colour_of = {frozenset(e): c for e, c in zip(g.edges, colours)}
    identity = tuple(range(g.n))
    for img in permutations(range(g.n)):
        if img != identity and all(
                colour_of.get(frozenset((img[u], img[v]))) == c
                for (u, v), c in zip(g.edges, colours)):
            return img
    return None


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether some vertex permutation carries g's edge set onto h's."""
    if (g.n, g.m) != (h.n, h.m):
        return False
    target = {frozenset(e) for e in h.edges}
    return any(all(frozenset((img[u], img[v])) in target for u, v in g.edges)
               for img in permutations(range(g.n)))


def brute_dprime(x, max_width: int | None = None) -> int:
    """Least colouring width preserved by no non-trivial automorphism."""
    g = x.base if isinstance(x, Orientation) else x
    m = g.m
    if m == 0:
        return 1
    eperms = [edge_perm_of(g, img) for img in brute_automorphism_images(x)
              if img != tuple(range(g.n))]
    if not eperms:
        return 1
    top = max_width if max_width is not None else m
    for width in range(1, top + 1):
        for assignment in product(range(1, width + 1), repeat=m):
            if all(any(assignment[ep[i]] != assignment[i] for i in range(m))
                   for ep in eperms):
                return width
    raise AssertionError("no distinguishing colouring within the width bound")


def restricted_growth_strings(m: int, width: int) -> list[tuple[int, ...]]:
    """Strings over 1..width using every colour, in lexicographic order.

    Each colour is at most one above every colour before it.
    """
    return [a for a in product(range(1, width + 1), repeat=m)
            if len(set(a)) == width
            and all(c <= 1 + max(a[:i], default=0) for i, c in enumerate(a))]


def brute_first_distinguishing(x, width: int) -> tuple[int, ...] | None:
    """First distinguishing colouring with exactly width colours, or None.

    Candidates are all the restricted-growth strings, in order.
    """
    g = x.base if isinstance(x, Orientation) else x
    eperms = [edge_perm_of(g, img) for img in brute_automorphism_images(x)
              if img != tuple(range(g.n))]
    for a in restricted_growth_strings(g.m, width):
        if all(any(a[ep[i]] != a[i] for i in range(g.m)) for ep in eperms):
            return a
    return None


def brute_od_extremes(g: Graph) -> tuple[int, int]:
    """(min, max) of the index over all 2^m orientations, no dedup."""
    values = [brute_dprime(Orientation(g, v))
              for v in range(1 << g.m)]
    return min(values), max(values)


def brute_kmn_index(m: int, n: int) -> int:
    """Index of K_{m,n} for m < n, from its colourings as column sets.

    The least k for which some set of n vectors in [k]^m is kept by no
    permutation of the m coordinates but the identity.  The n-subsets
    are tried directly, never their complements.
    """
    swaps = list(permutations(range(m)))[1:]
    k = 1
    while True:
        for cols in combinations(product(range(k), repeat=m), n):
            kept = set(cols)
            if not any({tuple(c[i] for i in p) for c in cols} == kept
                       for p in swaps):
                return k
        k += 1


# ---------------------------------------------------------------------------
# Twisted test straight from the powers definition


def brute_twisted(g: Graph, img) -> bool:
    """Whether some power of the map transposes the ends of an edge."""
    identity = tuple(range(g.n))
    q = tuple(img)
    while True:
        if any(q[u] == v and q[v] == u for u, v in g.edges):
            return True
        if q == identity:
            return False
        q = tuple(img[x] for x in q)


# ---------------------------------------------------------------------------
# Cycles, paths and centres by exhaustion


def brute_longest_cycle_length(g: Graph) -> int:
    """0 when acyclic, else the order of the longest cycle."""
    best = 0
    for k in range(g.n, 2, -1):
        for verts in permutations(range(g.n), k):
            if verts[0] != min(verts) or verts[1] > verts[-1]:
                continue
            ok = all(g.has_edge(verts[i], verts[(i + 1) % k])
                     for i in range(k))
            if ok:
                return k
    return best


def brute_connected(n: int, edges) -> bool:
    """Breadth-first search from vertex 0 over a list of edge pairs."""
    reached = {0}
    queue = [0]
    for v in queue:
        for e in edges:
            if v in e:
                w = e[0] + e[1] - v
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
    return len(reached) == n


def brute_traceable(g: Graph) -> bool:
    if g.n == 1:
        return True
    return any(all(g.has_edge(p[i], p[i + 1]) for i in range(g.n - 1))
               for p in permutations(range(g.n)))


def brute_least_hamiltonian_path(g: Graph) -> tuple[int, ...] | None:
    """First vertex sequence, in lexicographic order, that is a path."""
    for p in permutations(range(g.n)):
        if all(g.has_edge(p[i], p[i + 1]) for i in range(g.n - 1)):
            return p
    return None


def brute_least_longest_path(g: Graph) -> tuple[int, ...]:
    """First vertex sequence, in lexicographic order, of the most vertices
    that is a path."""
    for k in range(g.n, 0, -1):
        for p in permutations(range(g.n), k):
            if all(g.has_edge(p[i], p[i + 1]) for i in range(k - 1)):
                return p
    raise AssertionError("a graph has at least one vertex")


def neighbours(g: Graph) -> list[set[int]]:
    """Each vertex's neighbours, read off the edge list."""
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def brute_bipartition(g: Graph):
    """The first proper 2-colouring in lexicographic order, as its two
    classes, or None.  It gives colour 0 to each component's least
    vertex, since flipping a component's colours keeps a colouring
    proper."""
    for colour in product((0, 1), repeat=g.n):
        if all(colour[u] != colour[v] for u, v in g.edges):
            return tuple(tuple(v for v in range(g.n) if colour[v] == c)
                         for c in (0, 1))
    return None


def brute_tree_centre(t: Graph) -> tuple[int, ...]:
    """Vertices of least eccentricity, via pairwise BFS distances."""
    nbrs = neighbours(t)

    def ecc(v: int) -> int:
        dist = {v: 0}
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for w in nbrs[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        return max(dist.values())

    eccs = [ecc(v) for v in range(t.n)]
    least = min(eccs)
    return tuple(v for v in range(t.n) if eccs[v] == least)


# ---------------------------------------------------------------------------
# Orientation orbit counting via the fixed-vector formula


def orientation_orbit_count(g: Graph) -> int:
    """Number of orientation classes under the automorphism group.

    Averages, over the group, the number of direction vectors each
    element fixes: a vector exists for an element exactly when every
    cycle of its edge permutation reverses an even number of edges, and
    then each cycle contributes a free bit.
    """
    images = brute_automorphism_images(g)
    total = 0
    for img in images:
        ep = edge_perm_of(g, img)
        flips = [1 if img[u] > img[v] else 0 for u, v in g.edges]
        seen = [False] * g.m
        fixed = 1
        for s in range(g.m):
            if seen[s]:
                continue
            parity = 0
            i = s
            while not seen[i]:
                seen[i] = True
                parity ^= flips[i]
                i = ep[i]
            fixed = 0 if parity else fixed * 2
            if fixed == 0:
                break
        total += fixed
    assert total % len(images) == 0
    return total // len(images)


# ---------------------------------------------------------------------------
# Independent graph6 encoder, straight from the format description


def graph6_of(n: int, edges) -> str:
    present = {frozenset(e) for e in edges}
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if frozenset((i, j)) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        varv = 0
        for b in bits[k:k + 6]:
            varv = varv * 2 + b
        out.append(chr(varv + 63))
    return "".join(out)


def _bit_list(data: str, count: int) -> list[int]:
    """The first count bits of data, six per character, highest first."""
    bits = []
    for ch in data:
        varv = ord(ch) - 63
        assert 0 <= varv <= 63, f"bad data byte {ch!r}"
        for k in range(5, -1, -1):
            bits.append(varv >> k & 1)
    assert len(bits) - count in range(6) and not any(bits[count:]), \
        "wrong length or nonzero padding"
    return bits[:count]


def graph6_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and sorted edges of a valid graph6 string, n <= 62."""
    n = ord(text[0]) - 63
    bits = _bit_list(text[1:], n * (n - 1) // 2)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, sorted(p for p, b in zip(pairs, bits) if b)


def digraph6_arcs(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and arcs, in row order, of a valid digraph6 string."""
    assert text[0] == "&"
    n = ord(text[1]) - 63
    bits = _bit_list(text[2:], n * n)
    return n, [(t, h) for t in range(n) for h in range(n) if bits[t * n + h]]


# ---------------------------------------------------------------------------
# Rooted trees: structure, canonical forms, symmetry and counting


def rooted_children(t: Graph, root: int) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in range(t.n)]
    nbrs = neighbours(t)
    par = {root: root}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in sorted(nbrs[v]):
            if w not in par:
                par[w] = v
                kids[v].append(w)
                stack.append(w)
    return kids


def _shape(t: Graph, kids, v: int):
    return tuple(sorted(_shape(t, kids, w) for w in kids[v]))


def rooted_aut_order(t: Graph, root: int) -> int:
    """Order of the root-fixing group as a product of factorials."""
    kids = rooted_children(t, root)
    order = 1
    for v in range(t.n):
        counts: dict = {}
        for w in kids[v]:
            s = _shape(t, kids, w)
            counts[s] = counts.get(s, 0) + 1
        for c in counts.values():
            order *= factorial(c)
    return order


def rooted_automorphism_images(t: Graph, root: int) -> list[tuple[int, ...]]:
    """All root-fixing automorphisms, built by matching equal subtrees."""
    kids = rooted_children(t, root)
    shapes = {v: _shape(t, kids, v) for v in range(t.n)}

    def maps(v: int, target: int):
        groups: dict = {}
        for w in kids[v]:
            groups.setdefault(shapes[w], []).append(w)
        tgroups: dict = {}
        for w in kids[target]:
            tgroups.setdefault(shapes[w], []).append(w)

        def per_group(keys):
            if not keys:
                yield {}
                return
            key, rest = keys[0], keys[1:]
            src, dst = groups[key], tgroups[key]
            for arrangement in permutations(dst):
                partials = [list(maps(a, b)) for a, b in zip(src, arrangement)]
                for combo in product(*partials):
                    merged = {}
                    for part in combo:
                        merged.update(part)
                    for tail in per_group(rest):
                        out = dict(merged)
                        out.update(tail)
                        yield out

        for body in per_group(sorted(groups)):
            body[v] = target
            yield body

    images = []
    for body in maps(root, root):
        images.append(tuple(body[v] for v in range(t.n)))
    return sorted(images)


def distinguishing_rooted_assignments(t: Graph, root: int,
                                      width: int) -> list[tuple[int, ...]]:
    """Every width-bounded colouring breaking all root-fixing symmetry.

    Builds colourings bottom-up; a partial choice survives only while
    the (edge colour, coloured child form) pairs at each vertex stay
    pairwise distinct, which characterises distinguishing colourings of
    rooted trees.
    """
    kids = rooted_children(t, root)

    def options(v: int):
        child_opts = [options(w) for w in kids[v]]
        out = []

        def rec(i, used, frag, parts):
            if i == len(kids[v]):
                out.append((tuple(sorted(parts)), dict(frag)))
                return
            w = kids[v][i]
            ei = t.index_of(v, w)
            for canon_w, sub in child_opts[i]:
                for c in range(1, width + 1):
                    key = (c, canon_w)
                    if key in used:
                        continue
                    used.add(key)
                    frag[ei] = c
                    frag.update(sub)
                    rec(i + 1, used, frag, parts + [key])
                    used.discard(key)
                    for k in sub:
                        del frag[k]
                    del frag[ei]

        rec(0, set(), {}, [])
        return out

    full = []
    for _, frag in options(root):
        full.append(tuple(frag[i] for i in range(t.m)))
    return sorted(full)


def _optimal_rooted_assignments(t: Graph, root: int) -> tuple[int, list]:
    """The least width with a distinguishing colouring, and all of them."""
    for width in range(1, max(t.m, 1) + 1):
        cols = distinguishing_rooted_assignments(t, root, width)
        if cols:
            return width, cols
    raise AssertionError("rainbow colouring should always distinguish")


def oracle_rooted_dprime(t: Graph, root: int) -> int:
    return _optimal_rooted_assignments(t, root)[0]


ALL_PAIRS_BUDGET = 2000


def oracle_count_rooted_classes(t: Graph, root: int,
                                width: int | None = None) -> tuple[int, str]:
    """(class count, method) for distinguishing colourings at a width.

    Classes are orbits of the root-fixing group acting on colourings.
    The action is free (a colouring fixed by a non-trivial element would
    not be distinguishing), so the count is #colourings / group order;
    within budget this is double-checked by classifying every colouring
    against representatives through explicit symmetry application.
    """
    if width is None:
        width, cols = _optimal_rooted_assignments(t, root)
    else:
        cols = distinguishing_rooted_assignments(t, root, width)
    images = rooted_automorphism_images(t, root)
    order = len(images)
    assert order == rooted_aut_order(t, root)
    assert len(cols) % order == 0
    classes = len(cols) // order

    eperms = [edge_perm_of(t, img) for img in images]
    sample_orbit = {tuple(c[ep[i]] for i in range(t.m)) for ep in eperms
                    for c in cols[:1]}
    if cols:
        assert len(sample_orbit) == order, "group action is not free"

    if len(cols) <= ALL_PAIRS_BUDGET and order <= ALL_PAIRS_BUDGET:
        reps: list[tuple[int, ...]] = []
        for c in cols:
            mapped = ({tuple(c[ep[i]] for i in range(t.m)) for ep in eperms})
            if not any(r in mapped for r in reps):
                reps.append(c)
        assert len(reps) == classes, "free-action count disagrees with reps"
        return classes, "all-pairs"
    return classes, "free-action"
