"""The one sanctioned way to measure real elapsed time.

Experiment code must be reproducible, so the FP301 lint rule
(``tools/lint.py``) bans raw wall-clock reads outside
``network/clock.py`` (the simulated clock) and ``obs/``.  Code that
legitimately needs to time real work — progress reporting, the
description-check measurement — uses :class:`Stopwatch` from here,
keeping every wall-clock read in one greppable, lint-exempt place.
"""

from __future__ import annotations

import time


def utc_timestamp() -> str:
    """The current UTC time as ISO-8601 (``2026-08-08T12:34:56Z``).

    For run *metadata* only (bench-result provenance, artifact
    stamps) — never for measurements, which use :class:`Stopwatch`
    or the simulated clock.
    """
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class Stopwatch:
    """Measures real elapsed seconds with a monotonic clock.

    ::

        watch = Stopwatch()
        ...
        print(f"took {watch.elapsed_s:.1f}s")

    ``restart`` rebases the start time so one instance can time a
    sequence of stages.
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def restart(self) -> None:
        self._start = time.perf_counter()

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self._start

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_s * 1000.0
