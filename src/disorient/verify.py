"""Corpus-driven verification of the orientation results and conjecture scans.

Each named check runs over every graph of a corpus and yields, per
entry, a pass, a violation carrying the expected and actual values, or a
skip naming the unmet hypothesis or exceeded cap.  Conjecture scans
follow the same shape but treat a counterexample as a reported finding,
not an error; their distinguishing values can be cached in an
append-only JSON-lines file so interrupted sweeps resume cheaply.  A
row's key is the corpus's label for the graph, its graph6 text, so a
scan encodes nothing: a corpus read from graph6 keeps the lines it
parsed, and one built from graphs encodes each once, when it is built.
Workers take each graph as the corpus parsed it, and work on a twin of
it when they compute a value: nothing is parsed twice, and the caches a
check fills leave with the twin instead of staying on the corpus.

A cached row stands for the connectivity test: a scan writes rows only
for graphs it found connected, under their own graph6 text.  So a graph
whose row holds every value asked for gets only the single-edge and cap
checks before its verdict, with no worker.  Any other graph has its
neighbour masks built once, for that test and every helper after it.

A conjecture scan tries the paper's certificates before any search.
Each is a theorem or an exact test, so a value it gives is exact and a
certificate that fails costs only time.  D' is 1 when the graph is
rigid; two twin vertices, with equal open or closed neighbourhoods,
show at once that it is not, since swapping them is a symmetry.
Otherwise one walk over the graph's paths, made only for a value the
cache lacks, gives the least longest path, which is Hamiltonian when
the graph is traceable, and serves twice.  Colouring its edges 1 and
the others 2 leaves only the symmetries that are the identity or the
reversal on the path, tried on neighbour bitmasks with the other
vertices matched by their neighbours.  Failing that, the path and one
chord coloured 1 are tried in edge order: on a Hamiltonian path by the
few symmetries of the cycle with at most two tails they make, on a
shorter one by the exact stabiliser test.  A hit gives D' = 2.  At
D' = 2 a Hamiltonian path gives a rigid orientation with none built
(Theorem 8): along it, position i reaches exactly the n - i vertices
from i on.  Otherwise the distinguishing 2-colouring found, by a
certificate or by dprime, is oriented: each colour-1 edge in its
canonical direction, each colour-2 edge reversed, and is_rigid tests
the result; through n = 9 it settles every graph the claw-free
construction (Theorem 12) settles, so that is not tried.  What no
certificate settles is searched as before: dprime, then
find_rigid_orientation, then od_minus.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from .complete_bipartite import as_complete_bipartite, dprime_kmn, od_minus_kmn
from .constructions import (CENTRAL_EDGE_SWAPPED, ConstructionError,
                            centre_case, clawfree_rigid_orientation_trace,
                            compatible_orientation, hamiltonian_orientation,
                            tree_od_values)
from .distinguishing import Colouring, dprime, is_distinguishing
from .graphs import (FormatError, Graph, Orientation, bipartition, cycles,
                     encode_digraph6, encode_graph6, hamiltonian_path,
                     has_twins, is_claw_free, is_connected,
                     neighbour_masks, parse, path_walk, reach)
from .groups import (NOT_FIXED, automorphism_generators, automorphisms,
                     fixed_set_status, is_automorphism, is_rigid, is_twisted,
                     nontrivial_automorphism)
from .orientations import (DEFAULT_EDGE_CAP, enumerate_orientations,
                           find_rigid_orientation, od_extremes, od_minus)

THEOREM_IDS = ("obs1", "cor3", "cor6", "thm7", "thm8", "thm9", "thm12", "kmn")

CLAIMS = {
    "obs1": "orientation symmetries sit inside the graph's; equal groups "
            "give equal indices and rigidity gives index 1",
    "cor3": "bipartite without class swap: extremes are ceil(D'/2) and D'",
    "cor6": "trees with a fixed centre: extremes are ceil(D'/2) and D'",
    "thm7": "trees with a swapped central edge: formula by colouring count",
    "thm8": "traceable graphs admit a rigid orientation along the path",
    "thm9": "index-2 trichotomy through twisted automorphisms",
    "thm12": "claw-free graphs of order at least six orient rigidly",
    "kmn": "complete bipartite predictions match the swept values",
}


@dataclass(frozen=True)
class Violation:
    graph6: str
    expected: str
    actual: str

    def to_json(self) -> dict:
        return {"graph6": self.graph6, "expected": self.expected,
                "actual": self.actual}


@dataclass(frozen=True)
class Skip:
    graph6: str
    reason: str

    def to_json(self) -> dict:
        return {"graph6": self.graph6, "reason": self.reason}


@dataclass(frozen=True)
class Report:
    theorem_id: str
    total: int
    passed: int
    violations: tuple[Violation, ...]
    skipped: tuple[Skip, ...]
    wall_time: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "total": self.total,
            "passed": self.passed,
            "violations": [v.to_json() for v in self.violations],
            "skipped": [s.to_json() for s in self.skipped],
            "wall_time": round(self.wall_time, 3),
        }


@dataclass(frozen=True)
class Corpus:
    """Graphs to check, in input order; repeated lines are kept but flagged.

    labels holds each entry's graph6 text, header removed: a report names
    an entry by it, and a scan's cache keys its rows by it.
    """

    entries: tuple[Graph, ...]
    labels: tuple[str, ...]
    duplicates: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.entries) != len(self.labels):
            raise ValueError(f"{len(self.entries)} entries but "
                             f"{len(self.labels)} labels")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @classmethod
    def from_lines(cls, lines) -> "Corpus":
        graphs: list[Graph] = []
        labels: list[str] = []
        dups: list[str] = []
        seen: set[str] = set()
        for lineno, raw in enumerate(lines, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                # parse removes one header, so a second one is an error,
                # never part of a label
                graphs.append(parse("graph6", text))
            except FormatError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
            text = text.removeprefix(">>graph6<<").strip()
            labels.append(text)
            if text in seen:
                dups.append(text)
            seen.add(text)
        return cls(tuple(graphs), tuple(labels), tuple(dups))

    @classmethod
    def from_file(cls, path) -> "Corpus":
        return cls.from_lines(Path(path).read_text().splitlines())

    @classmethod
    def from_graphs(cls, graphs) -> "Corpus":
        gs = tuple(graphs)
        return cls(gs, tuple(encode_graph6(g) for g in gs))


_PASS = ("pass", "", "")


def _skip(reason: str):
    return "skip", reason, ""


def _viol(expected: str, actual: str):
    return "violation", expected, actual


def _halved(d: int) -> int:
    return -(-d // 2)


def _check_obs1(g: Graph, cap: int):
    if not is_connected(g):
        return _skip("disconnected")
    if g.m > cap:
        return _skip(f"edge count {g.m} over cap {cap}")
    # Aut(o) lies in Aut(g) when each of its generators does, and two
    # nested groups are equal exactly when their orders are.
    g_order = automorphism_generators(g)[1]
    d_g = dprime(g).value if g.n != 2 else None
    for o in enumerate_orientations(g, edge_cap=cap):
        gens, order = automorphism_generators(o)
        extra = next((p for p in gens if not is_automorphism(g, p)), None)
        if extra is not None:
            return _viol("orientation symmetries contained in the graph's",
                         f"{encode_digraph6(o)} admits {extra.image}")
        if order == g_order and d_g is not None:
            d_o = dprime(o).value
            if d_o != d_g:
                return _viol(f"equal groups give index {d_g}",
                             f"{encode_digraph6(o)} has index {d_o}")
        if order == 1:
            d_o = dprime(o).value
            if d_o != 1:
                return _viol("rigid orientation has index 1",
                             f"{encode_digraph6(o)} has index {d_o}")
    return _PASS


def _check_cor3(g: Graph, cap: int):
    if not is_connected(g):
        return _skip("disconnected")
    if g.n < 3:
        return _skip("fewer than three vertices")
    parts = bipartition(g)
    if parts is None:
        return _skip("not bipartite")
    if fixed_set_status(automorphism_generators(g)[0], parts[0]) == NOT_FIXED:
        return _skip("class-swapping automorphism present")
    if g.m > cap:
        return _skip(f"edge count {g.m} over cap {cap}")
    d = dprime(g).value
    res = od_extremes(g, edge_cap=cap)
    want = (_halved(d), d)
    got = (res.od_minus, res.od_plus)
    if got != want:
        return _viol(f"extremes {want}", f"extremes {got}")
    return _PASS


def _check_tree(g: Graph, cap: int, *, swapped: bool):
    if not is_connected(g):
        return _skip("disconnected")
    if g.m != g.n - 1:
        return _skip("not a tree")
    if g.n < 3:
        return _skip("fewer than three vertices")
    kind = centre_case(g)  # D is counted only for the check that goes on
    if (kind == CENTRAL_EDGE_SWAPPED) != swapped:
        return _skip(f"centre case is {kind}")
    if g.m > cap:
        return _skip(f"edge count {g.m} over cap {cap}")
    want = tree_od_values(g)[:2]
    res = od_extremes(g, edge_cap=cap)
    got = (res.od_minus, res.od_plus)
    if got != want:
        return _viol(f"extremes {want} [{kind}]", f"extremes {got}")
    return _PASS


def _check_thm8(g: Graph, cap: int):
    if not is_connected(g):
        return _skip("disconnected")
    path = hamiltonian_path(g)
    if path is None:
        return _skip("not traceable")
    try:
        o = hamiltonian_orientation(g, path)
    except ConstructionError as exc:
        return _viol("rigid orientation along the spanning path", str(exc))
    order = automorphism_generators(o)[1]
    if order != 1:
        return _viol("trivial group", f"order {order}")
    return _PASS


def _check_thm9(g: Graph, cap: int):
    if not is_connected(g):
        return _skip("disconnected")
    if g.n < 3:
        return _skip("fewer than three vertices")
    d = dprime(g).value
    if d != 2:
        return _skip(f"distinguishing index {d}, not 2")
    if g.m > cap:
        return _skip(f"edge count {g.m} over cap {cap}")
    # D' = 2: some 2-colouring of the edges is kept by the identity
    # alone, so Aut(g) acts freely on its orbit and has at most
    # 2^m <= 2^cap elements; listing them needs no cap of its own.
    twisted, kept = [], []
    for p in automorphisms(g):
        if not p.is_identity:
            (twisted if is_twisted(g, p) else kept).append(p)

    # (a) no orientation keeps a twisted map, tested on each orientation
    # representative, which suffices since Aut(o) lies in Aut(g) and a
    # conjugate of a twisted map is twisted.
    if twisted:
        for o in enumerate_orientations(g, edge_cap=cap):
            for p in twisted:
                if is_automorphism(o, p):
                    return _viol("no orientation admits a twisted map",
                                 f"{encode_digraph6(o)} admits {tuple(p.image)}")

    if not kept:
        res = od_extremes(g, edge_cap=cap)
        if (res.od_minus, res.od_plus) != (1, 1):
            return _viol("both extremes 1 without a usable symmetry",
                         f"extremes {(res.od_minus, res.od_plus)}")
        return _PASS

    # (c) a non-twisted symmetry survives into some orientation.
    res = od_extremes(g, edge_cap=cap)
    if res.od_plus != 2:
        return _viol("maximum over orientations 2", f"{res.od_plus}")
    p = kept[0]  # the least: elements come in image order
    try:
        o = compatible_orientation(g, p)
    except (ValueError, ConstructionError) as exc:
        return _viol("orientation compatible with the chosen map", str(exc))
    if not is_automorphism(o, p):
        return _viol("constructed orientation admits the chosen map",
                     f"{encode_digraph6(o)} does not admit {tuple(p.image)}")
    return _PASS


def _rotate_to_least(cycle) -> tuple[int, ...]:
    k = cycle.index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


def _check_thm12(g: Graph, cap: int):
    if not is_connected(g):
        return _skip("disconnected")
    if g.n < 6:
        return _skip("fewer than six vertices")
    if not is_claw_free(g):
        return _skip("contains an induced claw")
    if g.m > cap:
        return _skip(f"edge count {g.m} over cap {cap}")
    try:
        trace = clawfree_rigid_orientation_trace(g)
    except ConstructionError as exc:
        return _viol("rigid orientation from the claw-free procedure", str(exc))
    order = automorphism_generators(trace.result)[1]
    if order != 1:
        return _viol("trivial group", f"order {order}")
    if trace.branch == "cycle" and trace.checkpoint_arcs is not None:
        # the seeded cycle must stay the only directed cycle of its
        # length, and no directed cycle may leave its vertex set
        seeded = _rotate_to_least(trace.cycle)
        on_cycle = set(trace.cycle)
        for arcs in (trace.checkpoint_arcs, trace.result.arcs):
            out = [0] * g.n
            for t, h in arcs:
                out[t] |= 1 << h
            found = set(cycles(out))
            stray = [c for c in found if not set(c) <= on_cycle]
            if stray:
                return _viol("directed cycles confined to the seeded cycle",
                             f"cycle through {stray[0]}")
            full = [c for c in found if len(c) == len(seeded)]
            if full != [seeded]:
                return _viol(
                    f"one directed cycle of length {len(seeded)}, the seeded one",
                    f"cycles of that length: {sorted(full)}")
    if trace.branch == "cut_vertex" and trace.source is not None:
        indeg = [0] * g.n
        for _, h in trace.result.arcs:
            indeg[h] += 1
        if indeg[trace.source] != 0:
            return _viol("chosen vertex is a source",
                         f"in-degree {indeg[trace.source]}")
    value, _, _ = od_minus(g, edge_cap=cap)
    if value != 1:
        return _viol("minimum over orientations 1", f"{value}")
    return _PASS


def _check_kmn(g: Graph, cap: int):
    shape = as_complete_bipartite(g)
    if shape is None:
        return _skip("not complete bipartite")
    m, n = shape
    if not 2 <= m < n:
        return _skip("needs classes of sizes 2 <= m < n")
    pred = dprime_kmn(m, n)
    d = dprime(g).value
    if d != pred.value:
        return _viol(f"distinguishing index {pred.value}", f"{d}")
    if g.m > cap:
        return _skip(f"edge count {g.m} over cap {cap}")
    odp = od_minus_kmn(m, n)
    res = od_extremes(g, edge_cap=cap)
    if res.od_plus != d:
        return _viol(f"maximum over orientations {d}", f"{res.od_plus}")
    if res.od_minus != odp.value:
        return _viol(f"minimum over orientations {odp.value}",
                     f"{res.od_minus}")
    return _PASS


_CHECKERS = {
    "obs1": _check_obs1,
    "cor3": _check_cor3,
    "cor6": partial(_check_tree, swapped=False),
    "thm7": partial(_check_tree, swapped=True),
    "thm8": _check_thm8,
    "thm9": _check_thm9,
    "thm12": _check_thm12,
    "kmn": _check_kmn,
}


def _verify_worker(args):
    theorem_id, g, cap = args
    # a twin of the corpus's graph, not re-parsed: the adjacency caches a
    # check fills then go with it instead of living on in the corpus
    return _CHECKERS[theorem_id](Graph(g.n, g.edges), cap)


def _run_tasks(worker, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    # imported here: multiprocessing costs every importing process memory
    from concurrent.futures import ProcessPoolExecutor
    # a fork pool starts all its workers at once: no more than tasks or CPUs
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=chunk))


def _assemble(theorem_id: str, labels, results, started: float) -> Report:
    violations = []
    skipped = []
    passed = 0
    for label, (status, a, b) in zip(labels, results):
        if status == "pass":
            passed += 1
        elif status == "skip":
            skipped.append(Skip(label, a))
        else:
            violations.append(Violation(label, a, b))
    return Report(theorem_id, len(labels), passed, tuple(violations),
                  tuple(skipped), time.perf_counter() - started)


def verify_theorem(corpus: Corpus, theorem_id: str, *,
                   edge_cap: int = DEFAULT_EDGE_CAP, jobs: int = 1) -> Report:
    """Check one named claim over the whole corpus."""
    if theorem_id not in _CHECKERS:
        known = ", ".join(THEOREM_IDS)
        raise ValueError(f"unknown theorem id {theorem_id!r}; known ids: {known}")
    started = time.perf_counter()
    tasks = [(theorem_id, g, edge_cap) for g in corpus.entries]
    results = _run_tasks(_verify_worker, tasks, jobs)
    return _assemble(theorem_id, corpus.labels, results, started)


# The last cache file read: the path as given -> ((st_dev, st_ino,
# st_size, st_mtime_ns) or None while it does not exist, {g6: (dprime,
# od_minus)}).  The device and inode in the stamp tell when the same
# spelling names another file, after a chdir or a replace.  One entry,
# so a long-lived process holds one file's rows.
_CACHE_MEMO: dict[str, tuple[tuple[int, int, int, int] | None,
                             dict[str, tuple]]] = {}


def _stamp(path: str) -> tuple[int, int, int, int] | None:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _is_index(value) -> bool:
    """Whether a cached value can be an index: an int, not a bool, >= 1."""
    return type(value) is int and value >= 1


def _load_cache(path) -> dict[str, tuple]:
    """(dprime, od_minus) by graph6 key, read once per file state.

    A key is a graph's graph6 text, as the corpus labels it.  The rows
    of the last file read are kept under the path as given and read
    again only when one stat of it shows another device, inode, size or
    mtime, so a scan made of many batches parses the file once; two
    spellings of one file cost at most one more read.
    """
    p = os.fspath(path)
    stamp = _stamp(p)
    memo = _CACHE_MEMO.get(p)
    if memo is not None and memo[0] == stamp:
        return memo[1]
    rows: dict[str, tuple] = {}
    lines = Path(p).read_text().splitlines() if stamp is not None else []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            key, d, odm = row["g6"], row["dprime"], row.get("od_minus")
        except (json.JSONDecodeError, TypeError, KeyError, AttributeError):
            key = None
        if type(key) is str and _is_index(d) and (odm is None or _is_index(odm)):
            rows[key] = d, odm
        else:
            warnings.warn(f"cache {p}: skipping corrupt line {i}")
    _CACHE_MEMO.clear()
    _CACHE_MEMO[p] = stamp, rows
    return rows


def _append_cache(path, rows) -> None:
    """Append rows; the memo takes them in unless the file changed meanwhile."""
    if not rows:
        return
    p = os.fspath(path)
    memo = _CACHE_MEMO.pop(p, None)
    current = memo is not None and memo[0] == _stamp(p)
    with open(p, "a") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    if current:
        known = memo[1]
        for row in rows:
            known[row["g6"]] = row["dprime"], row["od_minus"]
        _CACHE_MEMO[p] = _stamp(p), known


def _image(mask: int, q) -> int:
    """The vertex set mask, as a bitmask, under the vertex map q."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << q[low.bit_length() - 1]
        mask ^= low
    return out


def _symmetric(bits, path, moves) -> bool:
    """Whether a symmetry but the identity fixes path or moves it by a move.

    bits are the graph's neighbour masks, and a move, not the identity,
    sends position i of path to position move[i]; it must keep the edges
    among the path's vertices.  The other vertices are then matched one
    at a time, each to a free one whose neighbours among the vertices
    mapped so far are the images of its own, so a complete match is an
    automorphism.  It serves the cold conjecture scan at a fraction of
    the cost of the pinned search.find_maps calls that could replace it,
    which took about a quarter off the cold scan's throughput over the
    connected graphs on at most 7 vertices.
    """
    on = sum(1 << v for v in path)
    off = [v for v in range(len(bits)) if not on >> v & 1]
    q = list(range(len(bits)))

    def match(i: int, done: int, used: int, moved: bool) -> bool:
        if i == len(off):
            return moved
        u = off[i]
        want = _image(bits[u] & done, q)
        for w in off:
            if not used >> w & 1 and bits[w] & used == want:
                q[u] = w
                if match(i + 1, done | 1 << u, used | 1 << w, moved or w != u):
                    return True
        return False

    if off and match(0, on, on, False):
        return True
    for move in moves:
        for v, j in zip(path, move):
            q[v] = path[j]
        if all(_image(bits[v] & on, q) == bits[q[v]] & on for v in path) \
                and match(0, on, on, True):
            return True
    return False


def _chord_moves(n: int, a: int, b: int):
    """The symmetries but the identity of the path 0..n-1 plus chord ab.

    a < b.  Path and chord make a cycle with at most two tails.  With
    none, the cycle's other rotations and its reflections remain.  A
    single tail is fixed, so only the cycle's reflection through the
    tail's end remains.  Two tails can only swap, by the reversal, when
    they are equally long.
    """
    if a == 0 and b == n - 1:
        return ([(s * i + r) % n for i in range(n)]
                for s in (1, -1) for r in range(n) if s < 0 or r)
    if a == 0:
        return [[b - 1 - i if i < b else i for i in range(n)]]
    if b == n - 1:
        return [[a + n - i if i > a else i for i in range(n)]]
    return [range(n - 1, -1, -1)] if a + b == n - 1 else []


def _two_colouring(g: Graph, bits, path) -> Colouring | None:
    """A distinguishing 2-colouring built on path, or None; bits are g's masks.

    path's edges are coloured 1 and the others 2; then, in edge order,
    that colouring with one more edge coloured 1.  A symmetry keeping
    one maps its colour-1 edges onto themselves, so only a few maps are
    tested, exactly: the identity and the reversal on path, or the
    symmetries of a path through every vertex and its chord.  A shorter
    path's chords go to the exact stabiliser test.
    """
    steps = {(u, v) if u < v else (v, u) for u, v in zip(path, path[1:])}
    base = tuple(1 if e in steps else 2 for e in g.edges)
    k = len(path)
    if not _symmetric(bits, path, [range(k - 1, -1, -1)]):
        return Colouring(2, base)
    pos = {v: i for i, v in enumerate(path)}
    for i, (u, v) in enumerate(g.edges):
        if base[i] == 1:
            continue
        colouring = Colouring(2, base[:i] + (1,) + base[i + 1:])
        if (is_distinguishing(g, colouring) if k < g.n else not _symmetric(
                bits, path, _chord_moves(k, *sorted((pos[u], pos[v]))))):
            return colouring
    return None


def _certified_rigid(g: Graph, bits, path, witness: Colouring | None) -> bool:
    """Whether g orients rigidly, by Theorem 8 or the index witness.

    bits are g's neighbour masks, path a longest path or None before one
    is walked, and witness a distinguishing 2-colouring or None.  A path
    through every vertex settles it with no orientation built; otherwise
    the witness's orientation, each colour-1 edge in its canonical
    direction and each colour-2 edge reversed, is tested with is_rigid.
    So True is exact.
    """
    if len(path or path_walk(bits, (1 << g.n) - 1)) == g.n:
        # Theorem 8: along the path, the vertex at position i reaches
        # exactly the n - i vertices from i on, so reach counts differ
        # and every automorphism is the identity
        return True
    return witness is not None and is_rigid(Orientation(
        g, sum(1 << i for i, c in enumerate(witness.assignment) if c == 2)))


def _needs_od_minus(which: str, d: int) -> bool:
    """Whether a scan needs the least index over orientations at D' = d.

    Conjecture 1 bounds it below by d // 2, which says something only
    when d >= 4; Conjecture 2 asks for 1 when d = 2.
    """
    return which != "2" and d >= 4 or which != "1" and d == 2


def _settle(g: Graph, bits, which: str, cap: int, d, odm):
    """The values of (d, odm) a scan needs, computing those not known.

    bits are g's neighbour masks, the one view of them its helpers share.
    """
    path = witness = None  # a longest path, computed at most once
    if d is None:
        if not has_twins(bits) and nontrivial_automorphism(g) is None:
            d = 1
        else:
            path = path_walk(bits, (1 << g.n) - 1)
            witness = _two_colouring(g, bits, path)
            if witness is None:
                result = dprime(g)
                d, witness = result.value, result.witness
            else:
                d = 2
    if odm is None and _needs_od_minus(which, d):
        if d == 2 and (_certified_rigid(g, bits, path, witness)
                       or find_rigid_orientation(g, edge_cap=cap) is not None):
            odm = 1
        else:
            odm = od_minus(g, edge_cap=cap)[0]
    return d, odm


def _scan_worker(args):
    """(d, odm) of a graph the triage passed on, computed on a twin of it.

    As in _verify_worker, the caches the checks fill leave with the twin.
    """
    g, bits, which, cap, d, odm = args
    return _settle(Graph(g.n, g.edges), bits, which, cap, d, odm)


def _verdict(which: str, d: int, odm):
    """A conjecture scan's result for a graph whose values are (d, odm)."""
    if which != "2" and d >= 4 and odm < d // 2:
        return _viol(f"minimum over orientations at least {d // 2}", f"{odm}")
    if which != "1" and d == 2 and odm != 1:
        return _viol("a rigid orientation at index 2", f"{odm}")
    return _PASS


def scan_conjectures(corpus: Corpus, which="both", *,
                     edge_cap: int = DEFAULT_EDGE_CAP,
                     cache_path=None, jobs: int = 1) -> Report:
    """Check the two open lower-bound statements over the corpus.

    which selects 1, 2, or "both".  A violation is a finding: the report
    carries it, nothing raises.  When cache_path is set, known values
    are reused and new ones appended as JSON lines, keyed by the
    corpus's labels, which are the graphs' graph6 texts: the scan itself
    encodes nothing, so graphs of any order scan.

    Values the cache lacks come from the certificates of the module
    docstring first.  Each is a theorem or an exact symmetry test, so
    the report and the rows are those the searches alone give.  Each
    graph is triaged here; only those still lacking a value after the
    skips become tasks, spread over jobs processes, so a warm rescan
    starts none.
    """
    which = str(which)
    if which not in ("1", "2", "both"):
        raise ValueError('which must be 1, 2 or "both"')
    started = time.perf_counter()
    cache = _load_cache(cache_path) if cache_path else {}

    values, results, tasks, computed = [], [], [], []
    for i, (g, label) in enumerate(zip(corpus.entries, corpus.labels)):
        d, odm = cache.get(label, (None, None))
        known = d is not None and (
            odm is not None or not _needs_od_minus(which, d))
        bits = None if known else neighbour_masks(g)
        if bits is not None and reach(bits, 0) != (1 << g.n) - 1:
            results.append(_skip("disconnected"))
        elif g.n == 2 and g.m == 1:
            results.append(
                _skip("distinguishing index undefined for a single edge"))
        elif g.m > edge_cap:
            results.append(_skip(f"edge count {g.m} over cap {edge_cap}"))
        else:
            results.append(None)
            if not known:
                computed.append(i)
                tasks.append((g, bits, which, edge_cap, d, odm))
        values.append((d, odm))
    for i, got in zip(computed, _run_tasks(_scan_worker, tasks, jobs)):
        values[i] = got

    if cache_path:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        fresh = {}  # by label: a repeated graph is written once
        for label, (d, odm) in zip(corpus.labels, values):
            if d is not None and label not in fresh \
                    and (d, odm) != cache.get(label):
                fresh[label] = {"g6": label, "dprime": d, "od_minus": odm,
                                "timestamp": stamp}
        _append_cache(cache_path, fresh.values())

    name = "conjectures" if which == "both" else f"conjecture{which}"
    return _assemble(name, corpus.labels, [
        r or _verdict(which, *v) for r, v in zip(results, values)], started)
