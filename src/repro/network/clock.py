"""Simulated time: the read-only :class:`Clock` protocol and the
:class:`SimulatedClock` work clock."""

from __future__ import annotations

from typing import Protocol

from repro.locking import guarded_by, named_lock


class Clock(Protocol):
    """Anything that tells simulated time in milliseconds.

    A component that owns a clock, or is bound to one, reads it
    itself: the proxy's :class:`SimulatedClock`, the ``sched``
    :class:`~repro.sched.loop.EventLoop` and the admission controller
    (which reads its telemetry bundle's clock) all qualify.  Only
    clock-less sinks take a time argument.
    """

    @property
    def now_ms(self) -> float: ...


@guarded_by("proxy.clock", "_now_ms")
class SimulatedClock:
    """Monotonic simulated time in milliseconds.

    Components advance the clock by the cost of their work; nothing ever
    reads the real time, so experiment results are reproducible across
    machines and runs.

    ``advance`` takes the ``proxy.clock`` named lock so concurrent
    serve stages charging costs never lose an increment; ``now_ms``
    reads without it (a float read is atomic under the GIL).
    """

    def __init__(self) -> None:
        self._lock = named_lock("proxy.clock")
        self._now_ms = 0.0

    @property
    def now_ms(self) -> float:
        return self._now_ms

    def advance(self, delta_ms: float) -> None:
        if delta_ms < 0:
            raise ValueError(f"cannot advance time by {delta_ms} ms")
        with self._lock:
            self._now_ms += delta_ms
