"""Machine-speed sampling, so that timings can be scaled to one reference speed.

On a shared host the CPU's speed changes all the time: other work on the
host slows every instruction, so CPU time grows with wall time and cannot
serve instead.  The same campaign item, run again and again
in one process, took anywhere from 57 to 110 ms, and the same 63 items took
26.8 s in one run and 32.7 s in the next.

A Stopwatch times a block of code.  While the block runs, a timer signal
interrupts it every SAMPLE_EVERY_S of CPU time and times a fixed piece of
stdlib work; the work is also timed once just before and once just after
the block.  The block's time, less the time spent sampling, is scaled by
REFERENCE_S / (the mean sample time): that is the time the block would have
taken at the speed at which the reference work takes REFERENCE_S.  The
samples are spread evenly over the block, so their mean follows the speed
the block actually ran at.  The reference work runs no latcayley code, so
no change to the library can move it: the scaling takes out the machine's
drift and nothing else.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.00105  # about reference_work's median time on the baseline machine (README.md)
SAMPLE_EVERY_S = 0.02  # CPU seconds between two samples inside a block


def reference_work() -> int:
    """Fixed work shaped like latcayley's inner loops: Fraction arithmetic,
    tuple sums into a set, and a sort."""
    acc = Fraction(0)
    points = set()
    for i in range(1, 160):
        acc += Fraction(i % 97 + 1, i % 89 + 1)
        p = (i % 7, i % 11, i % 13)
        points.add(tuple(a + b for a, b in zip(p, (i % 5, i % 3, i % 2))))
    return len(sorted(points)) + acc.numerator % 7


class Stopwatch:
    """Context manager: wall time of its block, raw and at reference speed.

    Only one Stopwatch may run at a time in a process, and only in the main
    thread, because it owns SIGPROF.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0  # seconds spent sampling inside the block
        self.raw_seconds = 0.0

    def _sample(self) -> float:
        t0 = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_signal(self, *_signal_args) -> None:
        self.paused += self._sample()

    def __enter__(self) -> "Stopwatch":
        self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.raw_seconds = time.perf_counter() - self._start - self.paused
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()
        return False

    @property
    def seconds(self) -> float:
        """The block's time at reference speed."""
        return self.raw_seconds * REFERENCE_S * len(self.samples) / sum(self.samples)
