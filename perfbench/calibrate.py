"""Machine-speed calibration for the end-to-end timings.

The shared host this benchmark was built on switches between speed regimes
for minutes at a time: every repetition of a run, and every set-up, slows by
25-55% together.  A fixed loop of numpy and interpreter work, timed right
before each repetition, slows by about the same factor.  Each repetition's
throughput is scaled by the loop's time over ``REFERENCE_S``, which reads as
the throughput on a machine where the loop takes ``REFERENCE_S``.

Over ten runs with a regime change (epoch-hpca, 2 cores, Xeon, OpenBLAS 0.3.31)
this cut the spread of throughput from 12.7% to 2.5% of the median.  Over ten
runs with no regime change, the loop's own noise widened the spread:
epoch-swta went from 3.2% to 7.6%.  The report keeps the raw figures.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.015


class Calibrator:
    """Times the calibration loop; the first call, a warm-up, is discarded."""

    def __init__(self):
        self._a = np.random.default_rng(0).standard_normal((384, 384))
        self()

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            np.exp(-np.abs(self._a @ self._a)).sum()
        total = 0
        for i in range(30000):
            total += i
        return time.perf_counter() - start


def rate(items: float, seconds: float, calibration_s: float) -> float:
    """Items per second, normalised to the reference machine speed."""
    return items / seconds * calibration_s / REFERENCE_S


def duration(seconds: float, calibration_s: float) -> float:
    """A duration, normalised to the reference machine speed."""
    return seconds * REFERENCE_S / calibration_s
