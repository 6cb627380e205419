"""The three workloads: what each calls, how it is sliced, what it checks.

Every call into the program is one operation and one timed slice.
Slices are short (one tree, one batch, one generator call) so that the
reference clock's samples fall between or inside them.  A round is a
first pass over the inputs followed by a rescan: the same pass again in
the same process, keeping only what the program keeps between
processes (conjecture-n7's cache file; corpus-build's in-process caches
are cleared, as in a new process).  Where the rescan repeats the first
pass's work (rescan_repeats_first), its slices are further samples of
the same per-graph times.

Nothing here imports the program; each function receives the package.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

DATA = Path(__file__).resolve().parent / "data"
TREES_FILE = DATA / "trees_3_10.g6"
CONNECTED_FILE = DATA / "connected_1_7.g6"

BATCH = 20          # graphs per scan_conjectures call in conjecture-n7
WARM_PASSES = 10    # rescans of conjecture-n7 against the filled cache
EDGE_CAP = 20       # the library's default sweep cap


@dataclass
class Round:
    """Timed slices of one round: (graphs handled, raw start, raw end)."""

    first: list[tuple[int, float, float]] = field(default_factory=list)
    rescans: list[list[tuple[int, float, float]]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


def _timed(rnd: Round, slices: list, call, *, ops: int = 1, graphs=None):
    """Run one slice of ops operations; an exception counts them as failed.

    graphs is the number of graphs the slice handles, or None for the
    length of its result.
    """
    rnd.attempted += ops
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # a failed operation is counted, not fatal
        rnd.failed += ops
        rnd.problems.append(f"operation failed: {type(exc).__name__}: {exc}")
        return None
    t1 = time.perf_counter()
    slices.append((len(out) if graphs is None else graphs, t0, t1))
    return out


def check_inputs() -> list[str]:
    """Per-order counts of the corpus files against the published ones."""
    problems = []
    for path, want in ((TREES_FILE, checks.TREE_COUNTS),
                       (CONNECTED_FILE, checks.CONNECTED_COUNTS)):
        got = checks.order_counts(checks.read_graph6_file(path))
        if got != want:
            problems.append(f"{path.name}: counts {got}, expected {want}")
    return problems


# ---------------------------------------------------------------- tree-sweep

def _report_key(report):
    return (report.total, report.passed, report.violations, report.skipped)


class TreeSweep:
    """verify_theorem cor6 then thm7 on each tree, one tree per request."""

    name = "tree-sweep"
    inputs = TREES_FILE
    rescan_repeats_first = True

    def load(self, pkg):
        return pkg.Corpus.from_file(self.inputs)

    def run_round(self, pkg, corpus, scratch: Path, rescan: bool = True) -> Round:
        rnd = Round()
        singles = [pkg.Corpus((g,), (label,))
                   for g, label in zip(corpus.entries, corpus.labels)]
        outcomes = []
        for p in range(2 if rescan else 1):
            slices: list = []
            outcomes.append([_timed(rnd, slices, lambda c=single: (
                pkg.verify_theorem(c, "cor6", edge_cap=EDGE_CAP),
                pkg.verify_theorem(c, "thm7", edge_cap=EDGE_CAP)), ops=2, graphs=1)
                for single in singles])
            if p == 0:
                rnd.first = slices
            else:
                rnd.rescans.append(slices)
        self._check(rnd, corpus.labels, outcomes)
        return rnd

    def _check(self, rnd: Round, labels, outcomes) -> None:
        first = outcomes[0]
        for later in outcomes[1:]:
            same = all(a is None or b is None or
                       (_report_key(a[0]), _report_key(a[1]))
                       == (_report_key(b[0]), _report_key(b[1]))
                       for a, b in zip(first, later))
            if not same:
                rnd.problems.append("rescan reports differ from the first pass")
        reached_thm7 = expected_thm7 = 0
        for label, got in zip(labels, first):
            if got is None:
                continue
            cor6, thm7 = got
            if cor6.violations or thm7.violations:
                rnd.problems.append(f"{label}: violation reported")
            passed = (cor6.passed, thm7.passed)
            skipped = (len(cor6.skipped), len(thm7.skipped))
            if sorted(passed) != [0, 1] or sorted(skipped) != [0, 1]:
                rnd.problems.append(
                    f"{label}: passed {passed}, skipped {skipped}; "
                    "expected exactly one of cor6/thm7 to pass")
            reached_thm7 += thm7.passed
            expected_thm7 += checks.swapped_central_edge(*checks.decode_graph6(label))
        if reached_thm7 != expected_thm7:
            rnd.problems.append(f"{reached_thm7} trees reached thm7, but "
                                f"{expected_thm7} have a swapped central edge")


# ------------------------------------------------------------- conjecture-n7

def _rchar() -> tuple[int, int]:
    """Bytes this process has read so far, and the size of this read."""
    with open("/proc/self/io", "rb") as fh:
        text = fh.read()
    for line in text.splitlines():
        if line.startswith(b"rchar:"):
            return int(line.split()[1]), len(text)
    raise RuntimeError("no rchar line in /proc/self/io")


def _expected_skip(label: str) -> bool:
    n, edges = checks.decode_graph6(label)
    return (n == 2 and len(edges) == 1) or len(edges) > EDGE_CAP


class ConjectureN7:
    """scan_conjectures(which="both") over all connected graphs on <= 7
    vertices, in consecutive batches sharing one fresh cache file (cold),
    then rescanned against the filled cache (warm)."""

    name = "conjecture-n7"
    inputs = CONNECTED_FILE
    rescan_repeats_first = False

    def load(self, pkg):
        return pkg.Corpus.from_file(self.inputs)

    def run_round(self, pkg, corpus, scratch: Path, rescan: bool = True) -> Round:
        rnd = Round()
        cache = scratch / f"cache-{time.monotonic_ns()}.jsonl"
        batches = [pkg.Corpus(corpus.entries[i:i + BATCH], corpus.labels[i:i + BATCH])
                   for i in range(0, len(corpus), BATCH)]
        bytes_read = 0

        def scan_pass(slices):
            nonlocal bytes_read
            reports = []
            for batch in batches:
                before, probe = _rchar()
                reports.append(_timed(rnd, slices, lambda b=batch: (
                    pkg.scan_conjectures(b, "both", edge_cap=EDGE_CAP,
                                         cache_path=cache)), graphs=len(batch)))
                bytes_read += _rchar()[0] - before - probe
            return reports

        cold = scan_pass(rnd.first)
        size = cache.stat().st_size if cache.exists() else 0
        rows = cache.read_text().splitlines() if size else []
        for _ in range(WARM_PASSES if rescan else 0):
            slices: list = []
            warm = scan_pass(slices)
            rnd.rescans.append(slices)
            if [r and _report_key(r) for r in warm] != [r and _report_key(r) for r in cold]:
                rnd.problems.append("warm pass report differs from the cold pass")
        if (cache.stat().st_size if cache.exists() else 0) != size:
            rnd.problems.append("warm passes appended to the cache")
        rnd.counts = {"verify.cache_rows_appended": len(rows),
                      "verify.cache_bytes_read": bytes_read}
        self._check(rnd, batches, cold, rows)
        cache.unlink(missing_ok=True)
        return rnd

    def _check(self, rnd: Round, batches, cold, rows) -> None:
        for batch, report in zip(batches, cold):
            if report is None:
                continue
            if report.total != len(batch) or (
                    report.passed + len(report.skipped) + len(report.violations)
                    != report.total):
                rnd.problems.append("report does not account for every graph")
            if report.violations:
                rnd.problems.append(f"violations reported: {report.violations[:3]}")
            skipped = sorted(s.graph6 for s in report.skipped)
            expected = sorted(label for label in batch.labels if _expected_skip(label))
            if skipped != expected:
                rnd.problems.append(f"skipped {skipped}, expected {expected}")
        values = {}
        for line in rows:
            row = json.loads(line)
            values[row["g6"]] = row
        for batch in batches:
            for label in batch.labels:
                n, edges = checks.decode_graph6(label)
                if n > 5 or _expected_skip(label):
                    continue
                row = values.get(label)
                if row is None:
                    rnd.problems.append(f"{label}: no cache row")
                    continue
                if row["dprime"] != checks.brute_index(n, edges):
                    rnd.problems.append(f"{label}: cached index {row['dprime']} "
                                        "differs from brute force")
                odm = row.get("od_minus")
                if odm is not None and odm != checks.brute_od_minus(n, edges):
                    rnd.problems.append(f"{label}: cached od_minus {odm} "
                                        "differs from brute force")


# -------------------------------------------------------------- corpus-build

class CorpusBuild:
    """connected_graphs(n) for n <= 7, then clawfree_graphs(n) for n <= 8,
    each call timed on its own, starting from cleared caches."""

    name = "corpus-build"
    inputs = None
    rescan_repeats_first = True

    def load(self, pkg):
        return None

    def run_round(self, pkg, inputs, scratch: Path, rescan: bool = True) -> Round:
        rnd = Round()
        outputs = []
        for p in range(2 if rescan else 1):
            for fn in (pkg.connected_graphs, pkg.clawfree_graphs,
                       pkg.connected_bipartite_graphs, pkg.trees):
                fn.cache_clear()
            slices: list = []
            built = {}
            for kind, fn, counts in (
                    ("connected", pkg.connected_graphs, checks.CONNECTED_COUNTS),
                    ("clawfree", pkg.clawfree_graphs, checks.CLAWFREE_COUNTS)):
                for n, want in counts.items():
                    graphs = _timed(rnd, slices, lambda f=fn, k=n: f(k))
                    if graphs is None:
                        continue
                    built[kind, n] = [(g.n, g.edges) for g in graphs]
                    if len(graphs) != want:
                        rnd.problems.append(f"{kind}({n}): {len(graphs)} graphs, "
                                            f"expected {want}")
            if p == 0:
                rnd.first = slices
                self._check(rnd, built)
            else:
                rnd.rescans.append(slices)
                if built != outputs[0]:
                    rnd.problems.append("rebuilt corpora differ from the first build")
            outputs.append(built)
        return rnd

    def _check(self, rnd: Round, built) -> None:
        for (kind, n), graphs in built.items():
            for size, edges in graphs:
                if size != n or not checks.connected(n, edges):
                    rnd.problems.append(f"{kind}({n}): a graph is not connected "
                                        f"on {n} vertices")
                    break
                if kind == "clawfree" and not checks.claw_free(n, edges):
                    rnd.problems.append(f"clawfree({n}): a graph has a claw")
                    break


WORKLOADS = {w.name: w for w in (TreeSweep(), ConjectureN7(), CorpusBuild())}
