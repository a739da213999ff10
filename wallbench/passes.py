"""The passes a workload runs: timed, traced, counting, everything-on.

Every pass drives a *fresh* target (empty cache) through the whole
workload, closed loop: one client, no think time, the next query is
issued when the previous answer has been read.  Only the timed and
the everything-on pass read the clock per query; the traced pass
records spans from wrappers around the layer entry points, and the
counting pass runs under ``cProfile``.
"""

from __future__ import annotations

import cProfile
import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs import ProxyInstrumentation
from repro.obs.events import EventRecorder
from repro.obs.profiling import Profiler
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import TimeSeriesRecorder

from wallbench import CALIB_WINDOW_NS
from wallbench.calibrate import read_kernel_us, window_scales
from wallbench.spans import SpanRecorder, install_wrappers
from wallbench.workloads import Environment

#: Every this-many-th answer is checked against the origin.
ORACLE_STRIDE = 10

#: Queries of the counting (``cProfile``) pass.
COUNTING_QUERIES = 500


@dataclass
class PassResult:
    """What one pass over the workload produced."""

    queries: int
    #: Raw per-query latency in ns, and the calibration window each
    #: query fell into.
    latency_ns: list[int] = field(init=False)
    window_of: list[int] = field(init=False)
    #: One kernel reading before the first window, one after each.
    kernel_us: list[float] = field(default_factory=list)
    #: Per-query records, from the proxies' own ``TraceStats``.
    records: list[Any] = field(default_factory=list)
    #: ``(query index, response)`` kept for the answer oracle, and the
    #: target's function that turns a response into row tuples.
    answers: list[tuple[int, Any]] = field(default_factory=list)
    rows_of: Any = None
    #: Indices of queries not ``served`` / not HTTP 200.
    not_served: list[int] = field(default_factory=list)
    entries_final: int = 0
    bytes_final: int = 0
    #: ``(restored, live)`` of the warm restart, persistent targets only.
    restart: tuple[int, int] | None = None
    _window_ns: int = 0

    def __post_init__(self) -> None:
        self.latency_ns = [0] * self.queries
        self.window_of = [0] * self.queries

    def calibrated_us(self) -> list[float]:
        """Per-query latency in calibrated µs."""
        scales = window_scales(self.kernel_us)
        return [
            raw / 1e3 * scales[window]
            for raw, window in zip(self.latency_ns, self.window_of)
        ]

    def timed(self, index: int, elapsed_ns: int) -> None:
        """Note query ``index``'s latency; close the window when due."""
        self.latency_ns[index] = elapsed_ns
        self.window_of[index] = len(self.kernel_us) - 1
        self._window_ns += elapsed_ns
        if self._window_ns >= CALIB_WINDOW_NS or index + 1 == self.queries:
            self.kernel_us.append(read_kernel_us())
            self._window_ns = 0


def _collect(target: Any, result: PassResult) -> None:
    """Read off what a finished pass left in its target."""
    result.rows_of = target.rows
    result.records = target.records()
    caches = [proxy.cache for proxy in target.proxies]
    result.entries_final = sum(len(cache) for cache in caches)
    result.bytes_final = sum(cache.current_bytes for cache in caches)
    result.restart = target.warm_restart()


def _keep(target: Any, result: PassResult, index: int, response: Any) -> None:
    """Outside the timed interval: note failures, keep oracle samples."""
    if not target.ok(response):
        result.not_served.append(index)
    elif index % ORACLE_STRIDE == 0:
        result.answers.append((index, response))


def timed_pass(
    environment: Environment,
    instrumentation: ProxyInstrumentation | None = None,
) -> PassResult:
    """One timed pass: per-query wall latency with interleaved kernel.

    The kernel runs between windows of ``CALIB_WINDOW_NS`` of query
    time and is never inside a query's interval.  With
    ``instrumentation`` this is the everything-on pass.
    """
    target = environment.target(instrumentation)
    result = PassResult(queries=len(environment))
    issue = target.issue
    clock = time.perf_counter_ns
    try:
        gc.collect()
        result.kernel_us.append(read_kernel_us())
        for index in range(result.queries):
            start = clock()
            response = issue(index)
            result.timed(index, clock() - start)
            _keep(target, result, index, response)
        _collect(target, result)
    finally:
        target.close()
    return result


def full_on_instrumentation() -> ProxyInstrumentation:
    """Tracer, profiler, time series and flight recorder all on."""
    return ProxyInstrumentation(
        tracer=SpanTracer(),
        profiler=Profiler(),
        timeseries=TimeSeriesRecorder(),
        events=EventRecorder(),
    )


def traced_pass(
    environment: Environment,
) -> tuple[PassResult, SpanRecorder, dict[str, float]]:
    """One pass with span wrappers around every layer's entry points.

    Returns the pass (its latencies are the root spans' durations),
    the recorder and the boundary counts of the serving phase (taken
    before the warm restart adds its own checkpoint).  The wrappers
    come off before this returns, whatever happens.
    """
    target = environment.target()
    result = PassResult(queries=len(environment))
    recorder = SpanRecorder()
    try:
        gc.collect()
        with install_wrappers(recorder, target):
            # The root span of every query: the client's own call.
            issue = recorder.wrap(
                "webapp.client" if target.apps else "query", target.issue
            )
            result.kernel_us.append(read_kernel_us())
            for index in range(result.queries):
                recorder.query_id = index
                root = len(recorder.spans)
                response = issue(index)
                recorder.end_query()
                result.timed(index, recorder.duration_ns(root))
                if target.apps:
                    recorder.counts["response_bytes"] += len(response[1])
                _keep(target, result, index, response)
            for proxy in target.proxies:
                if proxy.persistence is not None:
                    # Journal bytes no checkpoint has truncated yet.
                    recorder.counts["journal_bytes"] += (
                        proxy.persistence.journal.size_bytes
                    )
            counts = dict(recorder.counts)
            _collect(target, result)
    finally:
        target.close()
    return result, recorder, counts


@contextmanager
def _thread_profile(profiles: list[cProfile.Profile]) -> Iterator[None]:
    """Profile the current (server) thread for as long as it runs."""
    profile = cProfile.Profile()
    profiles.append(profile)
    profile.enable()
    try:
        yield
    finally:
        profile.disable()


def counting_pass(environment: Environment) -> tuple[list[Any], int]:
    """The first ``COUNTING_QUERIES`` queries under ``cProfile``.

    Returns the raw ``getstats()`` entries of every profiled thread
    (the client's, and in the HTTP deployment both server threads')
    and the number of queries counted.
    """
    profiles: list[cProfile.Profile] = []
    target = environment.target(
        thread_context=lambda: _thread_profile(profiles)
    )
    n = min(COUNTING_QUERIES, len(environment))
    issue = target.issue
    try:
        gc.collect()
        with _thread_profile(profiles):
            for index in range(n):
                issue(index)
    finally:
        # Server threads stop profiling when their servers shut down.
        target.close()
    stats = [entry for profile in profiles for entry in profile.getstats()]
    return stats, n
