"""Machine speed, measured during a run with a fixed reference kernel.

On a shared machine the same code runs up to a third slower for minutes
at a time; every pure-Python loop slows alike. The reference kernel is
the benchmark's own exact arithmetic (elimination mod p and over the
rationals, no polycech), timed every SAMPLE_EVERY_S seconds between
operations. A timing is reported at the reference speed: multiplied by
NOMINAL_S over the mean kernel time around it. Raw wall times are kept
in the run summary.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

import oracles

NOMINAL_S = 0.010  # reference kernel time that defines the reported speed
SAMPLE_EVERY_S = 0.5

_rng = random.Random(1)
_INTS = [[_rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
_FRACTIONS = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(12)]
              for _ in range(12)]


def reference_s() -> float:
    """Wall time of one pass of the kernel, with the cyclic collector paused."""
    gc.disable()
    try:
        start = time.perf_counter()
        oracles.rank_mod_p(_INTS, 10007)
        rows = [row[:] for row in _FRACTIONS]
        for c in range(len(rows)):
            pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
            if pivot is None:
                continue
            rows[c], rows[pivot] = rows[pivot], rows[c]
            for r in range(c + 1, len(rows)):
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
        return time.perf_counter() - start
    finally:
        gc.enable()


class SpeedLog:
    """Kernel samples of one process; ``factor`` scales a wall time to the reference speed."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.sampling_s = 0.0  # wall time spent in the kernel
        reference_s()  # the first pass also specializes the interpreter's bytecode

    def sample(self, passes: int = 1) -> int:
        """Time the kernel ``passes`` times; returns the index of the first sample."""
        first = len(self.samples)
        for _ in range(passes):
            start = time.perf_counter()
            self.samples.append((start, reference_s()))
            self.sampling_s += time.perf_counter() - start
        return first

    def due(self) -> bool:
        return time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S

    def factor(self, first: int, last: int | None = None) -> float:
        """NOMINAL_S over the mean kernel time of samples first..last (default: the latest)."""
        end = len(self.samples) if last is None else last + 1
        return NOMINAL_S / statistics.mean(s for _, s in self.samples[first:end])
