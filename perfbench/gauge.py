"""Machine-speed gauge: end-to-end times scaled to a fixed reference speed.

The benchmark shares its machine with other work.  On a 2-core VM the
speed of pure-Python code was seen to move by up to 2x in phases lasting
from seconds to minutes, with wall and CPU time moving together, so
neither a longer run nor another clock averages it out.  The baseline in
``baseline/`` records raw and scaled times of every run side by side.

So each timing the end-to-end metrics use is scaled by ``REFERENCE_S / g``.
``g`` is the median duration of a fixed pure-Python gauge, sampled
between cases, within ``WINDOW_S`` of the timing.  The gauge is the
benchmark's own index arithmetic on a fixed 8x8x8 tensor and calls no
veckit, so a change to veckit moves the scaled times (``selftest.py``
checks that doubling veckit's work halves scaled throughput) while a
change in machine speed mostly does not.  Raw times are printed beside
them.
"""

from __future__ import annotations

import bisect
import itertools
import statistics
from time import perf_counter

import oracle

# about the fastest the gauge ran on a 2-core x86-64 VM under Python 3.11;
# it sets only the level of the scaled times
REFERENCE_S = 9e-4
WINDOW_S = 2.0
_DIMS = (8, 8, 8)
_STRIDES = oracle.row_strides(_DIMS)
_DATA = list(range(512))


class Gauge:
    """Samples of the gauge, with the time each one ended."""

    def __init__(self):
        self.ends = []
        self.durations = []

    def sample(self, min_gap=0.0):
        """Time the gauge, unless the last sample ended under ``min_gap`` ago."""
        if self.ends and perf_counter() - self.ends[-1] < min_gap:
            return
        start = perf_counter()
        # the two kinds of work veckit does, in about equal time: list
        # comprehensions, and loops with a generator and an index tuple per
        # element; the first alone slowed less than veckit when the machine
        # was busy, the second alone more
        for _ in range(8):
            oracle.nested(_DIMS, oracle.vec_of(_DIMS, _DATA))
        out = []
        for index in itertools.product(*map(range, _DIMS)):
            out.append(_DATA[sum(i * s for i, s in zip(index, _STRIDES))])
        end = perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def factor(self, when):
        """``REFERENCE_S`` over the median gauge within ``WINDOW_S`` of ``when``."""
        lo = bisect.bisect_left(self.ends, when - WINDOW_S)
        hi = bisect.bisect_right(self.ends, when + WINDOW_S)
        if lo == hi:  # no sample that close: take the nearest one
            lo = max(0, min(lo, len(self.ends) - 1))
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def median(self):
        return statistics.median(self.durations)
