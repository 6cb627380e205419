"""Reference clock: program time in units of a fixed pure-Python loop.

The machine this benchmark was written on changes speed by up to a
factor of two within a second, so raw seconds do not repeat.  A short
sample of a fixed reference loop runs every PERIOD seconds of wall time,
interleaved with the program's work; each stretch of program time is
scaled by the reference rate measured on either side of it.

One reference second (ref_s) is the time the loop takes for REF_RATE
units.  Editing _unit, UNITS_PER_SAMPLE or REF_RATE redefines every timed
metric of the benchmark, so a change to any of them needs a fresh
baseline.  This module never imports the program.
"""

from __future__ import annotations

import gc
import signal
import time
from bisect import bisect_right

REF_RATE = 50000.0
UNITS_PER_SAMPLE = 15
PERIOD = 0.01

_SMALL = [(i * 2654435761) & 0xFFFF for i in range(256)]
_BIG = bytearray(range(256)) * 4096
_KEYS = ("alpha", "beta", "gamma", "delta")


def _unit(small=_SMALL, big=_BIG, keys=_KEYS) -> int:
    """One unit of reference work: integer arithmetic, indexing, reads
    spread over a 1 MiB buffer, and short-lived tuples, dicts and strings."""
    acc = 1
    for i in range(48):
        v = small[(acc + i) & 255]
        acc = (acc * 31 + v) & 0xFFFFF
        pair = (acc, v) if acc & 1 else (v, acc)
        acc ^= pair[0] + big[(acc * 977 + pair[1]) & 0xFFFFF]
    for i in range(6):
        row = {k: (acc >> j) & 255 for j, k in enumerate(keys)}
        text = "%s:%d" % (keys[i & 3], row["beta"] + i)
        acc += len(text.split(":")[0]) + row["gamma"]
    return acc


class RefClock:
    """Samples the reference rate and converts raw intervals to ref_s.

    With interrupts=True a SIGALRM timer takes a sample every PERIOD
    seconds, also in the middle of a long call into the program.  With
    interrupts=False samples are taken only through maybe_sample(), which
    the tracer calls at every span boundary.
    """

    def __init__(self, *, interrupts: bool = True):
        self.interrupts = interrupts
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rates: list[float] = []
        self._cum: list[float] = []
        self._previous = None

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        for _ in range(UNITS_PER_SAMPLE):
            _unit()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        self.rates.append(UNITS_PER_SAMPLE / (t1 - t0))

    def maybe_sample(self, now: float) -> bool:
        if now - self.ends[-1] < PERIOD:
            return False
        self.sample()
        return True

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD)

    def __enter__(self) -> RefClock:
        self.sample()
        if self.interrupts:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        if self.interrupts:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        self._build()

    def _build(self) -> None:
        cum = [0.0]
        for i in range(1, len(self.starts)):
            cum.append(cum[-1] + (self.starts[i] - self.ends[i - 1])
                       * self.gap_rate(i - 1) / REF_RATE)
        self._cum = cum

    def gap_rate(self, i: int) -> float:
        """Reference rate for the program time after sample i."""
        if i + 1 >= len(self.rates):
            return self.rates[-1]
        return 0.5 * (self.rates[i] + self.rates[i + 1])

    def _at(self, t: float) -> float:
        i = bisect_right(self.starts, t) - 1
        if i < 0:
            return (t - self.starts[0]) * self.rates[0] / REF_RATE
        if t <= self.ends[i]:
            return self._cum[i]
        return self._cum[i] + (t - self.ends[i]) * self.gap_rate(i) / REF_RATE

    def ref(self, t0: float, t1: float) -> float:
        """Reference seconds of program time between raw instants t0, t1.

        Time spent inside reference samples counts as zero.  Valid once
        the clock has been left.
        """
        return self._at(t1) - self._at(t0)

    def sample_seconds(self) -> float:
        return sum(e - s for s, e in zip(self.starts, self.ends))

    def median_rate(self) -> float:
        rates = sorted(self.rates)
        return rates[len(rates) // 2]
