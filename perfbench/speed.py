"""Machine speed, from fixed kernels timed between the benchmark's calls.

On a shared host, other tenants slow everything a process does, by up to
half, for seconds or for minutes at a time.  The runner times two kernels
between episodes (at most every SAMPLE_EVERY_S) and divides each call's time
by the factor by which the matching kernel ran slower than its reference,
taken as the median over the samples within WINDOW_S of the call.  So a slow
phase of the host does not read as a slow program.

Calls do not all slow down alike.  Calls shorter than SHORT_CALL_S do
small-rational arithmetic in the interpreter and slow down as much as
`small_kernel` does (1.6-1.7 times in a slow phase here); longer calls spend
their time on rationals of thousands of bits and slow down as `big_kernel`
does (1.2-1.4 times).  Scaling either kind by the other kernel would over-
or under-correct it.  Neither kernel calls anything in approxsys, so no
change to the program moves them.
"""

from __future__ import annotations

import bisect
import gc
import time
from fractions import Fraction
from statistics import median
from typing import List

# Median kernel times on an idle 2-core x86-64 container with Python 3.11.
SMALL_REFERENCE_S = 1.2e-3
BIG_REFERENCE_S = 0.8e-3
SHORT_CALL_S = 0.5e-3
SAMPLE_EVERY_S = 0.1
WINDOW_S = 1.0
MIN_SAMPLES = 5
_X = Fraction(3 ** 1000 + 1, 7 ** 600 + 2)
_Y = Fraction(5 ** 700 + 3, 11 ** 500 + 4)


def small_kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(1, i * i)
    return s


def big_kernel() -> Fraction:
    for _ in range(5):
        z = _X * _Y + _X / _Y
    return z


class Meter:
    """Kernel times, with the moment each pair was taken."""

    def __init__(self):
        self.at: List[float] = []
        self.small: List[float] = []
        self.big: List[float] = []

    def sample(self):
        gc.disable()
        t0 = time.perf_counter()
        small_kernel()
        t1 = time.perf_counter()
        big_kernel()
        t2 = time.perf_counter()
        gc.enable()
        self.at.append(t2)
        self.small.append(t1 - t0)
        self.big.append(t2 - t1)

    def sample_if_due(self):
        if not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """How much slower than the reference the machine ran, for a call
        over [start, end]: the median of the matching kernel's samples
        within WINDOW_S of it, or of the MIN_SAMPLES nearest ones when the
        window holds fewer."""
        took, reference = ((self.small, SMALL_REFERENCE_S) if end - start < SHORT_CALL_S
                           else (self.big, BIG_REFERENCE_S))
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo >= MIN_SAMPLES:
            return median(took[lo:hi]) / reference
        i = bisect.bisect_left(self.at, start)
        near = range(max(0, i - MIN_SAMPLES), min(len(self.at), i + MIN_SAMPLES))
        dist = [(max(start - self.at[j], self.at[j] - end, 0.0), j) for j in near]
        nearest = [j for _, j in sorted(dist)[:MIN_SAMPLES]]
        return median(took[j] for j in nearest) / reference
