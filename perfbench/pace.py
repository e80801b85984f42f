"""Machine speed, measured with a fixed pure-Python reference loop.

The speed of a shared machine swings by tens of percent within seconds and
drifts over minutes, and cachenet's pure-Python work follows most of the
swings of this loop. ``Pace`` times the loop every ``INTERVAL_S`` from a
background thread while ops run. Every op time the benchmark reports is the
op's wall time less the loop's own time within it, multiplied by
``REFERENCE_S`` over the median loop time around the op: the time the op
would take at the reference speed. The wall-clock total is printed alongside.
"""

from __future__ import annotations

import bisect
import statistics
import threading
from fractions import Fraction
from time import perf_counter

#: median duration of ``reference_work`` on the machine the bounds were set
#: on (2-core Intel Xeon, Python 3.11.7); it only sets the scale of the numbers
REFERENCE_S = 0.0008
#: a process shaped like a worker's set-up, run from this directory:
#: interpreter start, the numpy import, then pure-Python work
REFERENCE_PROGRAM = "import numpy, pace\nfor _ in range(25): pace.reference_work()\nprint('done')"
#: its median time from spawn to 'done' on the same machine
REFERENCE_PROCESS_S = 0.16
INTERVAL_S = 0.025
#: an op's speed is the median loop time from WINDOW_S + WINDOW_GROWTH * (its
#: length) before it to as long after it: the speed of short ops follows the
#: loop within a second, that of ops lasting seconds only on average
WINDOW_S = 0.15
WINDOW_GROWTH = 4.0
MIN_SAMPLES = 5


def reference_work() -> int:
    """Tuples, dicts, sets, small sorts and Fraction arithmetic, about 0.8 ms."""
    table: dict = {}
    acc = Fraction(0)
    for i in range(150):
        key = (i % 17, i % 5, i % 3)
        table[key] = table.get(key, 0) + 1
        acc += Fraction(i % 7, 1 + i % 11)
        frozenset(sorted((i, i % 13, i % 29)))
    return len(table) + acc.denominator


class Pace:
    """Samples the reference loop from a thread for the life of a ``with``."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "Pace":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.durations = [e - s for s, e in zip(self.starts, self.ends)]
        #: wall time to time at the reference speed, over the whole run
        self.scale = REFERENCE_S / statistics.median(self.durations) if self.durations else 1.0

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            t0 = perf_counter()
            reference_work()
            self.starts.append(t0)
            self.ends.append(perf_counter())

    def at_reference(self, a: float, b: float) -> float:
        """The wall interval [a, b], less the sampler's own time within it,
        at the reference speed."""
        w = WINDOW_S + WINDOW_GROWTH * (b - a)
        lo, hi = bisect.bisect_left(self.starts, a - w), bisect.bisect_right(self.starts, b + w)
        scale = self.scale
        if hi - lo >= MIN_SAMPLES:
            scale = REFERENCE_S / statistics.median(self.durations[lo:hi])
        return (b - a - self._busy(a, b)) * scale

    def at_run_speed(self, a: float, b: float) -> float:
        """The same, at the run's median speed, for spans nested in one another."""
        return (b - a - self._busy(a, b)) * self.scale

    def _busy(self, a: float, b: float) -> float:
        lo, hi = bisect.bisect_left(self.ends, a), bisect.bisect_right(self.starts, b)
        return sum(max(0.0, min(e, b) - max(s, a)) for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
