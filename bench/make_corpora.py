"""Write the benchmark's input corpora as graph6 files.

    python3 bench/make_corpora.py

The corpora are exhaustive (every tree on 3..10 vertices, every connected
graph on 1..7 vertices, one per isomorphism class), so no seed applies.
Each order is checked against its published count before anything is
written; the files are committed, and this script only makes them anew.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import CONNECTED_COUNTS, TREE_COUNTS  # noqa: E402
from disorient import connected_graphs, encode_graph6, trees  # noqa: E402
from workloads import CONNECTED_FILE, TREES_FILE  # noqa: E402


def write(path: Path, title: str, generator, counts: dict[int, int]) -> None:
    lines = [f"# {title}, one per isomorphism class; made by bench/make_corpora.py"]
    for n, want in counts.items():
        graphs = generator(n)
        if len(graphs) != want:
            raise SystemExit(f"{title}: {len(graphs)} on {n} vertices, expected {want}")
        lines.extend(encode_graph6(g) for g in graphs)
    path.write_text("\n".join(lines) + "\n")
    print(f"{path.name}: {len(lines) - 1} graphs")


if __name__ == "__main__":
    write(TREES_FILE, "trees on 3..10 vertices", trees, TREE_COUNTS)
    write(CONNECTED_FILE, "connected graphs on 1..7 vertices", connected_graphs,
          CONNECTED_COUNTS)
