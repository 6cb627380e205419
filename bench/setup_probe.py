"""Time one set-up of the program in this fresh interpreter.

    python3 bench/setup_probe.py [CORPUS.g6]

Set-up is importing the package and, when a corpus file is given,
loading it with Corpus.from_file.  Only the reference clock is imported
before the timer starts, so the package pays for its own imports.
Prints one JSON line: {"ref_s": ..., "raw_s": ...}.
"""

import importlib
import json
import sys
import time
from pathlib import Path

from refclock import RefClock

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    with RefClock() as clock:
        t0 = time.perf_counter()
        package = importlib.import_module("disorient")
        if len(sys.argv) > 1:
            package.Corpus.from_file(sys.argv[1])
        t1 = time.perf_counter()
    print(json.dumps({"ref_s": clock.ref(t0, t1), "raw_s": t1 - t0}))
