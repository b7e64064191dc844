"""Machine speed, sampled while the benchmark runs, to put times on one
scale.

The benchmark runs on shared virtual machines whose speed for
single-threaded Python drifts by 20-100% over seconds to minutes.  CPU
time (``time.process_time``) drifts with wall time, so it does not help:
the slowdown is in how fast the CPU runs, not in time taken away from
the process.  Instead, a fixed piece of pure-Python work (one *unit*:
exact elimination of a small ``Fraction`` matrix, like the library's
own) is timed every PERIOD_S seconds, from a timer signal, in the middle
of whatever the benchmark is doing.  A measured interval then has its
samples removed and is rescaled to a machine on which one unit takes
``REFERENCE_UNIT_S`` seconds:

    scaled = (measured - samples inside) * REFERENCE_UNIT_S / (unit time near)

A change in the library moves the measured time and not the unit time,
so it moves the scaled time by the same factor.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

# Seconds per unit on the machine that defined the benchmark (about the
# median of its samples), so that scaled times read as seconds there.
REFERENCE_UNIT_S = 0.0018
# One sample of UNITS_PER_SAMPLE units every PERIOD_S seconds: about 7%
# of the run.
PERIOD_S = 0.05
UNITS_PER_SAMPLE = 2
# Samples this close to an interval, on either side, also set its scale,
# so that an interval shorter than PERIOD_S has some.
WINDOW_S = 0.5

_SIZE = 7
_MATRIX = [
    [Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(_SIZE)]
    for i in range(_SIZE)
]


def _unit() -> None:
    rows = [row[:] for row in _MATRIX]
    for c in range(_SIZE):
        pivot = next((r for r in range(c, _SIZE) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inverse = 1 / rows[c][c]
        rows[c] = [v * inverse for v in rows[c]]
        for r in range(_SIZE):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]


class Speedometer:
    """Samples the unit time from SIGALRM while in a ``with`` block."""

    def __init__(self) -> None:
        # (start, end) of each sample of UNITS_PER_SAMPLE units
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> Speedometer:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        # The collector's cost depends on what the library left on the
        # heap, not on the machine, so it is kept out of the units.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        for _ in range(UNITS_PER_SAMPLE):
            _unit()
        self.samples.append((start, perf_counter()))
        if enabled:
            gc.enable()

    def scaled(self, start: float, end: float) -> float:
        """The time from ``start`` to ``end`` less the samples taken in
        it, on the reference machine."""
        # A sample runs in the main thread, so it lies wholly inside or
        # wholly outside the interval.
        inside = sum(e - b for b, e in self.samples if start <= b and e <= end)
        near = [e - b for b, e in self.samples if e >= start - WINDOW_S and b <= end + WINDOW_S]
        unit_s = sum(near) / (len(near) * UNITS_PER_SAMPLE)
        return (end - start - inside) * REFERENCE_UNIT_S / unit_s
