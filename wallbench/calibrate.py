"""Calibrated time: latencies as multiples of a reference kernel.

On a small shared box the same workload's raw per-query time drifts
by tens of percent between back-to-back runs (CPU frequency, noisy
neighbours, cache pressure).  The drift moves every piece of
interpreter work together, so the generator interleaves a fixed
pure-python *kernel* with the queries — once every
:data:`~wallbench.CALIB_WINDOW_NS` of query time — and scales each query's
latency by ``CALIB_NOMINAL_US / kernel time around its window``.
Kernel time is never part of a measurement.

The kernel is itself a 3 ms measurement on the same noisy box.  A
reading is three runs and takes their median, so one descheduling
inside a run does not poison a window; a window is scaled by the mean
of the reading before it and the reading after it.  (Taking the
*fastest* run and the *faster* reading instead looked steadier on a
quiet box but under-corrected by 15-20 % whenever the box was busy:
the fastest of six 1 ms runs finds a moment of full speed that queries
lasting several ms never get.)  Disturbances shorter than a window are
dealt with elsewhere, by timing every query once per pass and keeping
its fastest pass (:func:`wallbench.metrics.best_of_passes`).

The kernel does the interpreter work this codebase is made of: object
allocation, method calls, tuple-keyed dict writes, float compares.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from wallbench import CALIB_NOMINAL_US

#: A reading is ``KERNEL_REPEATS`` runs of ``KERNEL_TRIPS`` loop trips,
#: sized so the whole reading takes about ``CALIB_NOMINAL_US`` on the
#: box the benchmark was written on; its value is the median run times
#: ``KERNEL_REPEATS``.
KERNEL_TRIPS = 2200
KERNEL_REPEATS = 3


class _Interval:
    __slots__ = ("low", "high")

    def __init__(self, low: float, high: float) -> None:
        self.low = low
        self.high = high

    def overlaps(self, other: "_Interval") -> bool:
        return self.low <= other.high and other.low <= self.high


def _kernel_work() -> int:
    table: dict[tuple[int, str], _Interval] = {}
    previous = _Interval(0.0, 1.0)
    overlaps = 0
    for trip in range(KERNEL_TRIPS):
        interval = _Interval(trip * 0.75, trip * 0.75 + 1.0)
        if interval.overlaps(previous):
            overlaps += 1
        table[(trip & 63, "cell")] = interval
        previous = interval
    return overlaps


def read_kernel_us() -> float:
    """One calibration reading in µs (about ``CALIB_NOMINAL_US``)."""
    runs = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter_ns()
        _kernel_work()
        runs.append(time.perf_counter_ns() - start)
    runs.sort()
    return runs[KERNEL_REPEATS // 2] * KERNEL_REPEATS / 1e3


def window_scales(kernel_us: Sequence[float]) -> list[float]:
    """The scale factor of each window between consecutive readings.

    ``kernel_us`` holds one reading before the first window and one
    after every window; window ``w`` is scaled by the mean of readings
    ``w`` and ``w + 1``.
    """
    return [
        CALIB_NOMINAL_US / ((before + after) / 2.0)
        for before, after in zip(kernel_us, kernel_us[1:])
    ]


def calibrated_seconds(work: Callable[[], Any]) -> tuple[float, Any]:
    """Run ``work`` once between two kernel readings.

    Returns ``(calibrated seconds, work's result)``; used for set-up
    steps, which are too long to window.
    """
    before = read_kernel_us()
    start = time.perf_counter_ns()
    result = work()
    raw_s = (time.perf_counter_ns() - start) / 1e9
    after = read_kernel_us()
    return raw_s * CALIB_NOMINAL_US / ((before + after) / 2.0), result
