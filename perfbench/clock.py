"""Machine-speed reference for timings on a shared machine.

On a machine shared with other tenants the interpreter's speed swings by up
to 2x, in episodes from a second to minutes long, so raw wall time varies
more between runs than any useful regression bound.  The benchmark therefore
runs a fixed reference kernel (pure-Python rational arithmetic, like the
library's own inner loops) between jobs, at least every ``EVERY_S`` seconds,
and scales each job's wall time by ``NOMINAL_S`` over the mean of the two
reference samples around it.  Scaled seconds are seconds on a machine where
the kernel takes ``NOMINAL_S`` (the kernel's time on an idle core of the
2-vCPU x86-64 machine the benchmark was written on).  Raw wall times are
printed next to every scaled metric.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.010
EVERY_S = 0.2


def reference_kernel() -> float:
    """Seconds one fixed batch of rational additions takes right now."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 4000):
        total += Fraction(i % 89 + 1, i % 97 + 1)
    return perf_counter() - t0


class Clock:
    def __init__(self):
        self.at = []          # midpoint of each reference sample
        self.took = []        # its duration

    def sample(self) -> None:
        # collect the garbage of the work before, so the kernel does not pay for it
        gc.collect()
        t0 = perf_counter()
        took = reference_kernel()
        self.at.append(t0 + took / 2)
        self.took.append(took)

    def tick(self) -> None:
        """Sample if the last sample is older than EVERY_S."""
        if not self.at or perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scaled(self, start: float, elapsed: float) -> float:
        """Wall time of [start, start + elapsed] at nominal machine speed; the
        interval must lie between two samples."""
        before = bisect_right(self.at, start) - 1
        after = bisect_left(self.at, start + elapsed)
        if before < 0 or after >= len(self.at):
            raise ValueError("interval not bracketed by reference samples")
        local = (self.took[before] + self.took[after]) / 2
        return elapsed * NOMINAL_S / local
