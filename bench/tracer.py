"""Per-layer tracing from outside the program.

install() replaces every public function of each layer module wherever
the package binds it: in its own module, in the package namespace and
in every module that imported it by name (orientations.dprime,
groups.nontrivial_map, ...).  Each call opens a span named
"<layer>.<function>" whose parent is the span open when it started.
Generators (find_maps, automorphisms) are timed over their iteration:
each resume is a span of its own, and the consumer's work between
resumes is not theirs.

A span's self time is its time minus the time of its child spans.  A
traced run opens millions of spans, so they are not kept: the time
between two consecutive span boundaries is charged to the span open on
top, which adds up to the same self times.  Times are kept per gap
between reference samples and scaled by that gap's rate, so they come
out in ref_s like the end-to-end metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

from refclock import REF_RATE, RefClock

LAYERS = ("graphs", "search", "groups", "distinguishing", "orientations",
          "constructions", "smallgraphs", "verify")
SWEEPS = frozenset({"od_minus", "od_plus", "od_extremes",
                    "find_rigid_orientation", "enumerate_orientations"})
INDEX_SEARCHES = frozenset({"dprime", "dprime_at_most", "dprime_rooted"})
OUTSIDE = "outside"


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self, clock: RefClock):
        self.clock = clock
        self.counts: Counter = Counter()
        self.stack: list[tuple[str, str]] = []
        self.epochs: list[Counter] = [Counter()]
        self.last = time.perf_counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- time accounting -------------------------------------------------

    def _charge(self) -> None:
        now = time.perf_counter()
        layer = self.stack[-1][0] if self.stack else OUTSIDE
        self.epochs[-1][layer] += now - self.last
        self.last = now
        if self.clock.maybe_sample(now):
            self.epochs.append(Counter())
            self.last = self.clock.ends[-1]

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer in ref_s; valid once the clock is left."""
        out: Counter = Counter()
        for i, epoch in enumerate(self.epochs):
            scale = self.clock.gap_rate(i) / REF_RATE
            for layer, raw in epoch.items():
                out[layer] += raw * scale
        return {layer: out[layer] for layer in LAYERS}

    # -- counting at span boundaries -------------------------------------

    def _enter(self, layer: str, name: str, args) -> None:
        self._charge()
        key = f"{layer}.{name}"
        self.counts[key + ".calls"] += 1
        parent = self.stack[-1][1] if self.stack else None
        if name in SWEEPS:
            self.counts["orientations.sweeps"] += 1
        elif (name in ("dprime", "is_rigid") and parent in SWEEPS
              and type(args[0]).__name__ == "Orientation"):
            self.counts["orientations.evaluated"] += 1
        elif name == "nontrivial_map" and parent in INDEX_SEARCHES:
            self.counts["distinguishing.stabiliser_tests"] += 1
        self.stack.append((layer, name))

    def _leave(self, result=None, exc: BaseException | None = None) -> None:
        self._charge()
        layer, name = self.stack.pop()
        if exc is not None:
            if type(exc).__name__ == "GroupSizeError" and name == "automorphism_group":
                self.counts["groups.group_size_errors"] += 1
        elif name == "automorphism_group":
            self.counts["groups.automorphism_group.elements"] += len(result)
        elif name == "are_isomorphic" and result:
            self.counts["smallgraphs.are_isomorphic.hits"] += 1

    # -- wrapping --------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def iterate(it):
                try:
                    while True:
                        tracer._charge()
                        tracer.stack.append((layer, name))
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._charge()
                            tracer.stack.pop()
                        tracer.counts[f"{layer}.{name}.yielded"] += 1
                        yield item
                finally:
                    it.close()

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.counts[f"{layer}.{name}.calls"] += 1
                return iterate(fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._enter(layer, name, args)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    tracer._leave(exc=exc)
                    raise
                tracer._leave(result)
                return result
        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def install(self, package) -> None:
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (m is package or name.startswith(prefix))]
        wrapped = {}
        for layer in LAYERS:
            for name, fn in _public_functions(getattr(package, layer)):
                wrapped[id(fn)] = (fn, self._wrap(layer, name, fn))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, obj))
        self.last = time.perf_counter()

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()
