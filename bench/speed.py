"""Host speed probe: a fixed pure-Python kernel, timed while the benchmark runs.

Other tenants of a shared machine slow the interpreter by up to 1.6x, in
phases that last from a second to minutes, so two runs of the same code can
differ by more than any useful bound.  The probe times the same small
kernel every ``PERIOD`` seconds from a ``SIGALRM`` handler, in the
benchmark's own thread, so each sample sees the speed the program gets at
that moment.  A timing is then reported *scaled to the reference speed*:

    scaled seconds = raw seconds x mean(REFERENCE_S / kernel seconds)

over the samples taken while it ran, that is the seconds it would take on
a host where the kernel takes ``REFERENCE_S``.  The kernel uses no pilat
code, so a change to the program moves the scaled time as much as the raw
one.  The handler's own time is left out of every timed interval.
"""
from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

PERIOD = 0.1          # seconds between samples
WINDOW = 1.0          # shortest interval whose samples scale a timing
REFERENCE_S = 0.0015  # the kernel's time at the reference speed


def kernel() -> int:
    """1.5 to 2.5 ms of tuple, list, dict and call work; no comprehensions, so one frame."""
    counts: dict[tuple, int] = {}
    acc = 0
    for i in range(1000):
        row = []
        for j in range(6):
            row.append((i * 7919 + j * 104729) % 97)
        key = tuple(sorted(row))
        counts[key] = counts.get(key, 0) + 1
        acc += len(key) + key[0]
    return acc + len(counts)


def speed_of(kernel_seconds: list[float]) -> float:
    """Mean speed relative to the reference of these kernel times."""
    return statistics.fmean(REFERENCE_S / k for k in kernel_seconds)


def timed_kernels(count: int) -> list[float]:
    """Seconds for each of ``count`` kernel runs, back to back."""
    out = []
    for _ in range(count):
        t = perf_counter()
        kernel()
        out.append(perf_counter() - t)
    return out


class Probe:
    """Samples the kernel every ``PERIOD`` seconds while active (``with probe:``).

    ``clock()`` is ``perf_counter()`` less the time spent in the handler, so
    intervals read from it hold only the benchmark's work.  ``speed(a, b)``
    is the mean relative speed of the samples taken between two such readings.
    """

    def __init__(self):
        self.spent = 0.0
        self.times: list[float] = []     # clock() at each sample
        self.kernels: list[float] = []   # the kernel's seconds at each sample

    def clock(self) -> float:
        return perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        # The benchmark's requests stay 300 frames below the recursion limit,
        # so the handler's two frames cannot raise where they would not.
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.times.append(t0 - self.spent)
        self.kernels.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self) -> Probe:
        kernel()   # warm the kernel up before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Mean relative speed over [start, end] in ``clock()`` time.

        A shorter interval is widened to ``WINDOW`` seconds around its
        middle, so that a request of a few milliseconds is scaled by several
        samples.
        """
        mid = (start + end) / 2
        half = max(end - start, WINDOW) / 2
        lo = bisect_left(self.times, mid - half)
        hi = bisect_right(self.times, mid + half)
        return speed_of(self.kernels[lo:hi])
