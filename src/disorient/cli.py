"""Command-line front end.

Subcommands mirror the library: aut, dprime, od, orient, tree-od, kmn,
verify, conjecture.  Graph arguments take graph6 or digraph6 text
inline, an edge list, or @path to read a file.  Output is JSON with
--output json (stable key order) or labelled text lines by default.
Exit codes: 0 success, 1 when a verification or scan reports
violations, 2 on usage or input errors, 3 on an internal error (an
unexpected exception, reported with its traceback on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from .complete_bipartite import dprime_kmn, od_minus_kmn
from .constructions import (ConstructionError, OrderedPartition,
                            clawfree_rigid_orientation_trace,
                            compatible_orientation, hamiltonian_orientation,
                            layered_orientation, natural_bipartition,
                            tree_od_values)
from .distinguishing import dprime
from .graphs import FormatError, Graph, Orientation, encode_digraph6, parse
from .groups import Permutation, automorphism_generators, automorphisms
from .orientations import (DEFAULT_EDGE_CAP, EdgeCapError,
                           find_rigid_orientation, od_extremes, od_minus,
                           od_plus)
from .verify import Corpus, scan_conjectures, verify_theorem, THEOREM_IDS

CACHE_ENV = "DISORIENT_CACHE"
MAX_LISTED = 10 ** 6  # aut refuses to list a larger group


def _read_graph_arg(value: str, fmt: str | None) -> Graph | Orientation:
    if value.startswith("@") and len(value) > 1:  # a bare "@" is graph6 of K1
        value = Path(value[1:]).read_text()
    text = value.strip()
    if fmt is not None:
        return parse(fmt, text)
    if text.startswith(">>digraph6<<") or text.startswith("&"):
        return parse("digraph6", text)
    if text.startswith(">>graph6<<") or not any(ch.isspace() for ch in text):
        return parse("graph6", text)
    return parse("edgelist", text)


def _require_graph(x) -> Graph:
    if isinstance(x, Orientation):
        raise ValueError("this command expects an undirected graph")
    return x


def _colouring_json(c, edges) -> dict:
    return {"width": c.width, "assignment": list(c.assignment),
            "edges": [list(e) for e in edges]}


def _edge_order(x) -> tuple:
    return x.arcs if isinstance(x, Orientation) else x.edges


def _cmd_aut(args) -> tuple[dict, int]:
    x = _read_graph_arg(args.graph, args.format)
    order = automorphism_generators(x)[1]
    if order > MAX_LISTED:
        raise ValueError(f"group too large: more than {MAX_LISTED} elements")
    n = x.base.n if isinstance(x, Orientation) else x.n
    return {"n": n, "order": order,
            "elements": [list(p.image) for p in automorphisms(x)]}, 0


def _cmd_dprime(args) -> tuple[dict, int]:
    x = _read_graph_arg(args.graph, args.format)
    res = dprime(x)
    return {"dprime": res.value,
            "witness": _colouring_json(res.witness, _edge_order(x))}, 0


def _cmd_od(args) -> tuple[dict, int]:
    g = _require_graph(_read_graph_arg(args.graph, args.format))
    cap = args.edge_cap
    if args.rigid:
        o = find_rigid_orientation(g, edge_cap=cap)
        return {"rigid": o is not None,
                "orientation": None if o is None else encode_digraph6(o)}, 0
    if args.min:
        value, o, c = od_minus(g, edge_cap=cap)
        return {"od_minus": value, "orientation": encode_digraph6(o),
                "colouring": _colouring_json(c, o.arcs)}, 0
    if args.max:
        value, o, c = od_plus(g, edge_cap=cap)
        return {"od_plus": value, "orientation": encode_digraph6(o),
                "colouring": _colouring_json(c, o.arcs)}, 0
    res = od_extremes(g, edge_cap=cap)
    return {"od_minus": res.od_minus, "od_plus": res.od_plus,
            "orientation_min": encode_digraph6(res.witness_min),
            "orientation_max": encode_digraph6(res.witness_max)}, 0


def _parse_partition(text: str) -> OrderedPartition:
    try:
        classes = [[int(v) for v in part.split(",") if v != ""]
                   for part in text.split("/")]
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from exc
    return OrderedPartition.of(*classes)


def _parse_perm(text: str) -> Permutation:
    try:
        image = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad permutation {text!r}: {exc}") from exc
    return Permutation(image)


def _cmd_orient(args) -> tuple[dict, int]:
    g = _require_graph(_read_graph_arg(args.graph, args.format))
    payload: dict = {"method": args.method}
    if args.method == "layered":
        partition = (_parse_partition(args.partition)
                     if args.partition else natural_bipartition(g))
        o = layered_orientation(g, partition)
    elif args.method == "hamiltonian":
        o = hamiltonian_orientation(g)
    elif args.method == "clawfree":
        trace = clawfree_rigid_orientation_trace(g)
        o = trace.result
        payload["branch"] = trace.branch
    else:
        if args.perm is None:
            raise ValueError("--method compatible needs --perm")
        o = compatible_orientation(g, _parse_perm(args.perm))
    payload["digraph6"] = encode_digraph6(o)
    payload["arcs"] = [list(a) for a in o.arcs]
    return payload, 0


def _cmd_tree_od(args) -> tuple[dict, int]:
    g = _require_graph(_read_graph_arg(args.graph, args.format))
    lo, hi, case = tree_od_values(g)
    payload = {"od_minus": lo, "od_plus": hi, "case": case.kind}
    if case.unique_optimal is not None:
        payload["unique_optimal"] = case.unique_optimal
    return payload, 0


def _cmd_kmn(args) -> tuple[dict, int]:
    payload = dprime_kmn(args.m, args.n).to_json()
    payload["od_minus"] = od_minus_kmn(args.m, args.n).to_json()
    return payload, 0


def _cmd_verify(args) -> tuple[dict, int]:
    corpus = Corpus.from_file(args.corpus)
    report = verify_theorem(corpus, args.theorem,
                            edge_cap=args.edge_cap, jobs=args.jobs)
    return report.to_json(), 0 if report.ok else 1


def _cache_path(args) -> str | None:
    if args.no_cache:
        return None
    return args.cache or os.environ.get(CACHE_ENV) or None


def _cmd_conjecture(args) -> tuple[dict, int]:
    corpus = Corpus.from_file(args.corpus)
    report = scan_conjectures(corpus, args.which, edge_cap=args.edge_cap,
                              cache_path=_cache_path(args), jobs=args.jobs)
    return report.to_json(), 0 if report.ok else 1


def _text_lines(payload: dict, prefix: str = "") -> list[str]:
    lines: list[str] = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.extend(_text_lines(value, f"{prefix}{key}."))
        elif isinstance(value, list) and any(
                isinstance(v, (list, dict)) for v in value):
            lines.append(f"{prefix}{key}: {json.dumps(value)}")
        elif isinstance(value, list):
            lines.append(f"{prefix}{key}: {' '.join(str(v) for v in value)}")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("json", "text"), default="text")

    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--edge-cap", type=int, default=DEFAULT_EDGE_CAP)

    graphish = argparse.ArgumentParser(add_help=False)
    graphish.add_argument("graph", help="graph6/digraph6/edgelist text or @file")
    graphish.add_argument("--format",
                          choices=("graph6", "digraph6", "edgelist"))

    parser = argparse.ArgumentParser(
        prog="disorient",
        description="Distinguishing indices of graphs and their orientations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aut", parents=[common, graphish],
                       help="automorphism group elements")
    p.set_defaults(run=_cmd_aut)

    p = sub.add_parser("dprime", parents=[common, graphish],
                       help="distinguishing index with a witness colouring")
    p.set_defaults(run=_cmd_dprime)

    p = sub.add_parser("od", parents=[common, capped, graphish],
                       help="extremes of the index over orientations")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--min", action="store_true")
    mode.add_argument("--max", action="store_true")
    mode.add_argument("--rigid", action="store_true")
    p.set_defaults(run=_cmd_od)

    p = sub.add_parser("orient", parents=[common, graphish],
                       help="build one of the named orientations")
    p.add_argument("--method", required=True,
                   choices=("layered", "hamiltonian", "clawfree", "compatible"))
    p.add_argument("--partition", help="vertex classes like 0,2/1,3")
    p.add_argument("--perm", help="permutation image like 1,0,2")
    p.set_defaults(run=_cmd_orient)

    p = sub.add_parser("tree-od", parents=[common, graphish],
                       help="orientation extremes of a tree by formula")
    p.set_defaults(run=_cmd_tree_od)

    p = sub.add_parser("kmn", parents=[common],
                       help="complete bipartite predictions")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(run=_cmd_kmn)

    p = sub.add_parser("verify", parents=[common, capped],
                       help="check one named claim over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("conjecture", parents=[common, capped],
                       help="scan a corpus for conjecture counterexamples")
    p.add_argument("--corpus", required=True)
    p.add_argument("--which", choices=("1", "2", "both"), default="both")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cache", help=f"cache file (default ${CACHE_ENV})")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(run=_cmd_conjecture)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, code = args.run(args)
    except (FormatError, ValueError, ConstructionError, EdgeCapError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in _text_lines(payload):
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
