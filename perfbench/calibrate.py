"""Host speed probe: a fixed pure-Python task that shares no code with mediant.

On the shared 2-core host this benchmark was built on, pure-Python work ran
up to 1.7 times slower in some spells than in others. A spell lasted from
seconds to many minutes. The same `verify --depth 15` process took 3.0 s in
one run and 5.1 s a few minutes earlier. Timings are therefore scaled to a
reference speed. A run probes the host between its operations. Each timing
is multiplied by REF_S over the median probe within WINDOW_S of it. The
median over nearby probes keeps one noisy probe from moving the scale.
Probes further away are left out, because the speed drifts between spells.

Over 189 back-to-back `verify --depth 13` processes, the medians of windows
of 8 operations had a quartile spread of 17.3% raw. Scaled by the probes on
either side of each operation, the spread was 4.4%. The probe builds and
compares Fractions, as mediant builds and compares ExtendedRationals: small
objects, gcd, and calls through Python methods. A probe that only built
tuple lists tracked the host less well (8.1%).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_S = 0.020  # the probe's duration at the reference speed: its fast spells here
WINDOW_S = 5.0
_STEPS = 10000


def probe() -> float:
    """Seconds taken by the fixed task now."""
    start = time.perf_counter()
    target = Fraction(355, 113) - 3
    lo, hi = Fraction(0), Fraction(1)
    for i in range(_STEPS):
        if i % 40 == 0:
            lo, hi = Fraction(0), Fraction(1)
        mid = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        if mid < target:
            lo = mid
        else:
            hi = mid
    return time.perf_counter() - start


class HostSpeed:
    """Probes taken through a run, and the scale they give for a timed interval."""

    def __init__(self):
        self.probes = []  # (midpoint on the perf_counter clock, seconds)
        self.take()

    def take(self) -> None:
        start = time.perf_counter()
        seconds = probe()
        self.probes.append((start + seconds / 2, seconds))

    def scale(self, start: float, seconds: float) -> float:
        """`seconds`, timed from `start`, at the reference speed."""
        near = [p for t, p in self.probes if start - WINDOW_S <= t <= start + seconds + WINDOW_S]
        return seconds * REF_S / statistics.median(near)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(p for _, p in self.probes)
