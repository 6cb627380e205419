"""The benchmark command: one workload, machine-normalised timings.

    python3 bench/run.py --workload tree-sweep --seed 1 --seconds 3 --trace 0

Runs from the repository root or anywhere else; the program is imported
from ../src relative to this file.  With --trace 0 the last line of
standard output carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced round and its tracing overhead.  The line
before it gives raw seconds and reference rates, which are not metrics.
Times are in reference seconds (ref_s, see refclock.py).

The inputs are exhaustive corpora, so --seed changes nothing the
program sees; it is accepted and echoed so runs can be told apart.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from refclock import RefClock
from tracer import Tracer
from workloads import WORKLOADS, check_inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 5
TAIL_BEYOND = 10


def measure_setup(workload) -> tuple[float, float]:
    """Median (ref_s, raw_s) of SETUPS set-ups, each in a fresh interpreter."""
    ref, raw = [], []
    argv = [sys.executable, str(HERE / "setup_probe.py")]
    if workload.inputs is not None:
        argv.append(str(workload.inputs))
    for _ in range(SETUPS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"set-up failed:\n{done.stderr}")
        row = json.loads(done.stdout.splitlines()[-1])
        ref.append(row["ref_s"])
        raw.append(row["raw_s"])
    return statistics.median(ref), statistics.median(raw)


def per_graph_ms(slices, clock: RefClock) -> list[float]:
    """Each graph's time: its slice's time shared out over the slice's graphs."""
    out = []
    for graphs, t0, t1 in slices:
        out.extend([1000.0 * clock.ref(t0, t1) / graphs] * graphs)
    out.sort()
    return out


def rate(slices, clock: RefClock) -> float:
    return (sum(g for g, _, _ in slices)
            / sum(clock.ref(t0, t1) for _, t0, t1 in slices))


def raw_seconds(slices) -> float:
    return sum(t1 - t0 for _, t0, t1 in slices)


def ref_seconds(slices, clock: RefClock) -> float:
    return sum(clock.ref(t0, t1) for _, t0, t1 in slices)


def end_to_end(workload, rounds, clock: RefClock,
               setup: float) -> dict[str, tuple[float, str]]:
    per_round = []
    for rnd in rounds:
        samples = list(rnd.first)
        if workload.rescan_repeats_first:
            samples += [s for rescan in rnd.rescans for s in rescan]
        times = per_graph_ms(samples, clock)
        per_round.append({
            "graphs_per_s": rate(rnd.first, clock),
            "graph_p50_ms": statistics.median(times),
            # the highest percentile with TAIL_BEYOND samples beyond it
            "graph_tail_ms": times[max(0, len(times) - TAIL_BEYOND - 1)],
            "rescan_graphs_per_s": statistics.median(
                rate(s, clock) for s in rnd.rescans),
        })
    units = {"graphs_per_s": "1/ref_s", "graph_p50_ms": "ref_ms",
             "graph_tail_ms": "ref_ms", "rescan_graphs_per_s": "1/ref_s"}
    out = {name: (statistics.median(r[name] for r in per_round), unit)
           for name, unit in units.items()}
    out["setup_s"] = (setup, "s")  # reference seconds, like every time here
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return out


def per_layer(tracer: Tracer, rnd, overhead: float) -> dict[str, tuple[float, str]]:
    c = tracer.counts
    self_s = tracer.self_seconds()
    out = {f"{layer}.self_s": (secs, "ref_s") for layer, secs in self_s.items()}
    counted = {
        "orientations.evaluated": c["orientations.evaluated"],
        "orientations.sweeps": c["orientations.sweeps"],
        "search.find_maps.calls": c["search.find_maps.calls"],
        "search.find_maps.maps": c["search.find_maps.yielded"],
        "search.nontrivial_map.calls": c["search.nontrivial_map.calls"],
        "distinguishing.dprime.calls": c["distinguishing.dprime.calls"],
        "distinguishing.stabiliser_tests": c["distinguishing.stabiliser_tests"],
        "groups.automorphism_group.calls": c["groups.automorphism_group.calls"],
        "groups.automorphism_group.elements": c["groups.automorphism_group.elements"],
        "groups.group_size_errors": c["groups.group_size_errors"],
        "constructions.calls": sum(v for k, v in c.items()
                                   if k.startswith("constructions.") and k.endswith(".calls")),
        "smallgraphs.are_isomorphic.calls": c["smallgraphs.are_isomorphic.calls"],
        "smallgraphs.are_isomorphic.hits": c["smallgraphs.are_isomorphic.hits"],
        "graphs.parse.calls": c["graphs.parse.calls"],
        "graphs.encode.calls": c["graphs.encode_graph6.calls"] + c["graphs.encode_digraph6.calls"],
        "verify.cache_rows_appended": rnd.counts.get("verify.cache_rows_appended", 0),
    }
    out.update((name, (value, "count")) for name, value in counted.items())
    out["verify.cache_bytes_read"] = (rnd.counts.get("verify.cache_bytes_read", 0), "bytes")
    out["trace.overhead"] = (overhead, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=3.0,
                    help="rounds repeat until this much program time is measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    problems = check_inputs()
    if not (SRC / "disorient" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {SRC / 'disorient'} is missing")
    setup_ref, setup_raw = measure_setup(workload)
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("disorient")
    inputs = workload.load(pkg)

    scratch_root = HERE / ".scratch"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        with RefClock() as clock:
            if args.trace:
                # the untraced base for trace.overhead: one first pass
                rounds = [workload.run_round(pkg, inputs, scratch, rescan=False)]
            else:
                rounds = []
                while not rounds or sum(raw_seconds(r.first) for r in rounds) < args.seconds:
                    rounds.append(workload.run_round(pkg, inputs, scratch))
        if args.trace:
            tclock = RefClock(interrupts=False)
            tracer = Tracer(tclock)
            tracer.install(pkg)
            try:
                with tclock:
                    traced = workload.run_round(pkg, inputs, scratch)
            finally:
                tracer.uninstall()
            overhead = ref_seconds(traced.first, tclock) / ref_seconds(rounds[0].first, clock)
            metrics = per_layer(tracer, traced, overhead)
            rounds.append(traced)
        else:
            metrics = end_to_end(workload, rounds, clock, setup_ref)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    for rnd in rounds:
        problems.extend(rnd.problems)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds),
        "first_pass_raw_s": [raw_seconds(r.first) for r in rounds],
        "first_pass_ref_s": [ref_seconds(r.first, clock) for r in rounds[:1]],
        "rescan_raw_s": [raw_seconds(s) for r in rounds for s in r.rescans],
        "rescan_ref_s": [ref_seconds(s, clock) for s in rounds[0].rescans],
        "setup_raw_s": setup_raw,
        "ref_rate_median": clock.median_rate(),
        "ref_rate_range": [min(clock.rates), max(clock.rates)],
        "ref_samples": len(clock.rates),
        "ref_sample_s": clock.sample_seconds(),
        "problems": problems[:20],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
