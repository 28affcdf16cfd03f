"""Machine-speed normalization for a shared, drifting box.

On the 2-core VM this benchmark was built on, the same pass ran anywhere
from 1.9 s to 3.7 s within minutes, with CPU time tracking wall time, so the
drift is the CPU's speed, not preemption. A fixed reference task, timed from
a SIGALRM handler every ``SAMPLE_INTERVAL_S`` of wall time while jobs run,
tracks most of that speed: over ten P5 passes whose wall time varied with a
coefficient of variation of about 15%, normalized times varied by 2.5-3%.

Normalized seconds are seconds at the speed where ``reference_task`` takes
``REFERENCE_S``: a span of work time W during which the samples took
r_1..r_n counts as W * mean(REFERENCE_S / r_i). The samples' own time is
taken out of W first.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 250e-6
SAMPLE_INTERVAL_S = 0.025
# a job with this many samples is normalized by its own, a shorter one by its pass's
MIN_JOB_SAMPLES = 4

_GENERATORS = ((1, 1, 0, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0, 0, 1),
               (2, 0, 1, 0, 1, 0, 0, 0), (0, 0, 2, 0, 0, 1, 1, 0))
_DEGREE = (2, 1, 3, 0, 2, 1, 1, 2)


def reference_task() -> int:
    """Fixed pure-Python work of the program's kind: Fraction arithmetic,
    dict updates, max-merges of exponent tuples and a face scan with
    zip/all. It must never call bsdecomp, or normalization would cancel the
    program's own speed-ups; changing it rescales every normalized figure."""
    acc = Fraction(0)
    counts: dict[tuple, int] = {}
    for i in range(1, 20):
        acc += Fraction(i, i + 7)
        key = tuple(range(i % 8))
        counts[key] = counts.get(key, 0) + 1
    total = 0
    for i in range(75):
        x = (i, i ^ 5, i & 7)
        total += sum(a if a > b else b for a, b in zip(x, (3, 4, 5)))
    support = [v for v, e in enumerate(_DEGREE) if e][:5]
    for bits in range(1 << len(support)):
        reduced = list(_DEGREE)
        for p, v in enumerate(support):
            if bits >> p & 1:
                reduced[v] -= 1
        if any(all(x <= y for x, y in zip(g, reduced)) for g in _GENERATORS):
            total += 1
    return total + acc.numerator + len(counts)


def time_reference() -> float:
    start = perf_counter()
    reference_task()
    return perf_counter() - start


def calibrate(warmup: int = 5, count: int = 61) -> float:
    """Speed factor REFERENCE_S / median sample, measured now."""
    for _ in range(warmup):
        reference_task()
    samples = sorted(time_reference() for _ in range(count))
    return REFERENCE_S / samples[count // 2]


class SpeedSampler:
    """Times the reference task from a wall-clock interval timer."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_task()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, start: float, end: float) -> list[tuple[float, float]]:
        """(start, duration) of the samples taken between two perf_counter
        readings."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return list(zip(self.starts[lo:hi], self.durations[lo:hi]))
