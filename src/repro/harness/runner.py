"""Shared experiment machinery: build once, run many configurations.

Each run carries the proxy's full metrics-registry snapshot; when the
runner is built with a ``snapshot_dir``, the snapshot is also written
as JSON next to the benchmark results, so performance trajectories can
be diffed across PRs.  The scale's
:class:`~repro.harness.config.ObservabilityConfig` governs the rest of
the run artifacts: a ``decisions-<label>.json`` explain dump (always),
a ``trace-<label>.jsonl`` span export when tracing is enabled, a
``profile-<label>.json`` hot-path profile when profiling is enabled,
and ``timeseries-<label>.json`` / ``events-<label>.json`` live
telemetry (the time series embeds the final health report) when the
telemetry recorders are on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.description import ArrayDescription, RTreeDescription
from repro.core.proxy import FunctionProxy
from repro.core.schemes import CachingScheme
from repro.core.stats import TraceStats
from repro.harness.config import ExperimentScale
from repro.obs.events import EventRecorder
from repro.obs.instrument import ProxyInstrumentation
from repro.obs.profiling import Profiler
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import TimeSeriesRecorder
from repro.persistence.atomic import atomic_write_text
from repro.server.origin import OriginServer
from repro.workload.generator import generate_radial_trace
from repro.workload.rbe import BrowserEmulator
from repro.workload.trace import Trace


@dataclass(frozen=True)
class RunResult:
    """One proxy configuration's measurements."""

    scheme: CachingScheme
    description_kind: str  # "array" or "rtree"
    cache_fraction: float | None  # None = unlimited
    stats: TraceStats
    final_cache_bytes: int
    final_cache_entries: int
    metrics_snapshot: dict = field(default_factory=dict)

    def label(self) -> str:
        """A filesystem-safe tag for this configuration."""
        fraction = (
            "unlimited"
            if self.cache_fraction is None
            else str(self.cache_fraction).replace(".", "_")
        )
        return f"{self.scheme.value}-{self.description_kind}-{fraction}"


class ExperimentRunner:
    """Builds the testbed for a scale and replays configurations.

    The origin server and the trace are built once and reused across
    configurations (the origin is stateless with respect to the proxy;
    its query counters are diagnostics only).  The *total result size*
    that anchors the cache-size axis is measured the way the paper
    implies: the bytes a passive cache of unlimited size holds after
    the whole measured trace — i.e. one stored result file per distinct
    query.
    """

    def __init__(
        self,
        scale: ExperimentScale,
        snapshot_dir: str | Path | None = None,
    ) -> None:
        self.scale = scale
        self.snapshot_dir = None if snapshot_dir is None else Path(snapshot_dir)
        self._origin: OriginServer | None = None
        self._trace: Trace | None = None
        self._total_result_bytes: int | None = None

    # --------------------------------------------------------- building
    @property
    def origin(self) -> OriginServer:
        if self._origin is None:
            self._origin = OriginServer.skyserver(
                self.scale.sky, self.scale.server_costs
            )
        return self._origin

    @property
    def trace(self) -> Trace:
        if self._trace is None:
            self._trace = generate_radial_trace(self.scale.trace)
        return self._trace

    @property
    def total_result_bytes(self) -> int:
        """The cache-size axis anchor ("total result size of the trace")."""
        if self._total_result_bytes is None:
            probe = self.run(
                CachingScheme.PASSIVE, "array", cache_fraction=None
            )
            self._total_result_bytes = probe.final_cache_bytes
        return self._total_result_bytes

    def cache_bytes_for(self, fraction: float | None) -> int | None:
        if fraction is None:
            return None
        return int(self.total_result_bytes * fraction)

    # ---------------------------------------------------------- running
    def build_proxy(
        self,
        scheme: CachingScheme,
        description_kind: str = "array",
        cache_fraction: float | None = None,
        **proxy_kwargs,
    ) -> FunctionProxy:
        costs = self.scale.proxy_costs
        if description_kind == "array":
            description = ArrayDescription(costs)
        elif description_kind == "rtree":
            description = RTreeDescription(costs)
        else:
            raise ValueError(
                f"unknown description kind {description_kind!r}; "
                "use 'array' or 'rtree'"
            )
        return FunctionProxy(
            origin=self.origin,
            templates=self.origin.templates,
            scheme=scheme,
            description=description,
            cache_bytes=self.cache_bytes_for(cache_fraction),
            costs=costs,
            topology=self.scale.topology,
            instrumentation=self._build_instrumentation(),
            **proxy_kwargs,
        )

    def _build_instrumentation(self) -> ProxyInstrumentation:
        obs = self.scale.obs
        return ProxyInstrumentation(
            tracer=SpanTracer() if obs.tracing else None,
            profiler=Profiler() if obs.profiling else None,
            timeseries=TimeSeriesRecorder() if obs.timeseries else None,
            events=EventRecorder() if obs.events else None,
        )

    def run(
        self,
        scheme: CachingScheme,
        description_kind: str = "array",
        cache_fraction: float | None = None,
        measure_queries: int | None = None,
    ) -> RunResult:
        """Replay the trace under one configuration."""
        proxy = self.build_proxy(scheme, description_kind, cache_fraction)
        emulator = BrowserEmulator(proxy)
        limit = measure_queries or self.scale.measure_queries
        stats = emulator.run(self.trace, limit=limit)
        result = RunResult(
            scheme=scheme,
            description_kind=description_kind,
            cache_fraction=cache_fraction,
            stats=stats,
            final_cache_bytes=proxy.cache.current_bytes,
            final_cache_entries=len(proxy.cache),
            metrics_snapshot=proxy.metrics.snapshot(),
        )
        self._write_snapshot(result, proxy)
        return result

    def _write_snapshot(
        self, result: RunResult, proxy: FunctionProxy
    ) -> None:
        """Persist the run's observability artifacts beside the results:
        the metrics snapshot and the decision-explain dump always, the
        span export, profile, time series (with the final health
        report) and flight recorder when the scale turns them on.
        Writes are atomic (temp + rename), so an interrupted run never
        leaves a half-written artifact for a later diff to choke on."""
        if self.snapshot_dir is None:
            return
        self.snapshot_dir.mkdir(parents=True, exist_ok=True)
        artifacts = (
            ("metrics", True, lambda: result.metrics_snapshot),
            ("decisions", True, lambda: {
                "actions": proxy.obs.decisions.action_counts(),
                "slo": proxy.obs.slo.snapshot(),
                "decisions": proxy.obs.decisions.recent(),
            }),
            ("trace", proxy.tracer.enabled, proxy.tracer.export_jsonl),
            ("profile", proxy.profiler.enabled, proxy.profiler.snapshot),
            ("timeseries", proxy.timeseries.enabled, lambda: {
                **proxy.timeseries.snapshot(),
                "health": proxy.obs.health(proxy.telemetry_clock.now_ms),
            }),
            ("events", proxy.events.enabled, proxy.events.snapshot),
        )
        for name, enabled, produce in artifacts:
            if not enabled:
                continue
            payload = produce()
            if isinstance(payload, str):  # the JSONL span export
                path, text = f"{name}-{result.label()}.jsonl", payload
            else:
                path = f"{name}-{result.label()}.json"
                text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            atomic_write_text(self.snapshot_dir / path, text)
