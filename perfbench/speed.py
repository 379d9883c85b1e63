"""Rescale measured times to a fixed reference speed of the machine.

The machines this benchmark runs on are shared, and their speed for
pure-Python code drifts by up to 2x within seconds and over minutes, with
no steal time to show for it: a process's CPU time drifts exactly as its
wall time does.  So the benchmark samples the machine's speed all through
its timed work.  A ``Sampler`` runs a short fixed unit of pure-Python exact
arithmetic (``Fraction`` products and sums keyed by exponent tuples, the
shape of the package's hot loops; it does not use the package) from a
SIGALRM handler every ``INTERVAL_S`` of wall time, and times it.  An op's
time is reported as it would read on a machine that runs the unit in
``REFERENCE_S``:

    reported = (measured - time spent in the handler during the op)
               * REFERENCE_S / (mean unit time sampled during the op)

An op shorter than the interval uses the samples on either side of it.  A
change to the package moves the measured time and not the unit, so it moves
the reported time by the same share.  The measured times are kept on the
run's info line.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

#: time of one unit on the reference machine, a fixed constant; on the
#: 2-vCPU x86-64 VM the baseline was measured on, a sampled unit took 1.0
#: to 1.4 ms, in the median of a run, as the speed drifted
REFERENCE_S = 0.0009
INTERVAL_S = 0.02
WARMUP_UNITS = 20


def unit() -> Fraction:
    table: dict = {}
    for i in range(1, 100):
        key = (i % 7, i % 5, i % 3)
        x = Fraction(i * 7 + 1, (i * 13) % 97 + 1)
        table[key] = table.get(key, Fraction(0)) + x * x
    total = Fraction(0)
    for value in table.values():
        total += value
    return total


class Sampler:
    """Times one unit on entry, every ``INTERVAL_S`` while entered, and on exit.

    The collector is held off during a unit: the unit makes no reference
    cycles, and so the program's heap (which a change to the package can
    grow) stays out of it.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at each sample's start
        self.units: list[float] = []  # seconds of each sample's unit
        self.spent: list[float] = [0.0]  # sampling seconds before each sample, and in all
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            unit()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.units.append(t1 - t0)
        self.spent.append(self.spent[-1] + time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        for _ in range(WARMUP_UNITS):
            unit()
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def sampling_s(self, t0: float, t1: float) -> float:
        """Seconds spent sampling between ``t0`` and ``t1``."""
        first, last = self._window(t0, t1)
        return self.spent[last] - self.spent[first]

    def unit_s(self, t0: float, t1: float) -> float:
        """Mean unit time sampled between ``t0`` and ``t1``, or, if none was,
        in the last sample before ``t0`` and the first after ``t1``."""
        first, last = self._window(t0, t1)
        if last == first:
            first, last = max(first - 1, 0), min(last + 1, len(self.units))
        window = self.units[first:last]
        return sum(window) / len(window)

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """Measured seconds from ``t0`` to ``t1`` less sampling, and the same
        at reference speed."""
        measured = t1 - t0 - self.sampling_s(t0, t1)
        return measured, measured * REFERENCE_S / self.unit_s(t0, t1)

    def mean_unit_s(self) -> float:
        """Mean unit time over every sample."""
        return sum(self.units) / len(self.units)
