"""Fixed-interval time series sampled on the simulated clock.

Prometheus-style cumulative metrics answer "how much so far"; the
time-series recorder answers "what was it doing *then*".  At every
interval boundary on the sim/event time axis it takes one sample:

* **counter lanes** become rates — the counter delta over the window
  divided by the window's simulated seconds, clamped non-negative so a
  counter reset (warm restart rebinding a fresh registry) reads as a
  momentary zero rather than a negative spike;
* **gauge lanes** are point samples (queue depth, in-flight, cache
  bytes, breaker state, snapshot age);
* **quantile lanes** diff a histogram's per-bucket counts across the
  window and report rolling quantiles (p50/p95) of just that window's
  observations — an empty window reports ``None``, not a stale value.

Samples land in a bounded ring buffer (the newest ``capacity``
survive) and are aligned to the interval grid: a sample's ``t_ms`` is
always a multiple of ``interval_ms``, however unevenly queries arrive.
Beside each sample the recorder keeps the window's cache hit ratio,
computed once when the sample is taken, so the health verdict judges
a new window without re-reading the old ones.
When the clock jumps several intervals at once, one sample covers the
whole gap with rates averaged over it — the buffer never floods on a
time warp.

The recorder is clock-agnostic: callers pass ``now_ms`` (the proxy
passes its simulated work clock; tests may drive it from an event
loop).  State is guarded by the ``proxy.telemetry`` named lock — a
pure sink in the lock order (:data:`repro.locking.LOCK_ORDER`).
:class:`NullTimeSeries` is the shared no-op default, keeping the
disabled-overhead contract (one method call per query, no allocation).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.locking import guarded_by, named_lock, read_only
from repro.obs.health import QUEUE_SATURATION_WINDOWS, hit_ratio
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


@dataclass(frozen=True)
class CounterLane:
    """One rate lane: a counter family sampled as events/second."""

    name: str
    metric: str


@dataclass(frozen=True)
class GaugeLane:
    """One gauge lane: a point-in-time value per sample."""

    name: str
    metric: str


@dataclass(frozen=True)
class QuantileLane:
    """One rolling-quantile lane over a histogram's window deltas."""

    name: str
    metric: str


#: The rolling quantiles every quantile lane reports.
QUANTILES = (0.5, 0.95)


@dataclass(frozen=True)
class LaneSet:
    """The lanes one recorder samples from its registry."""

    counters: tuple[CounterLane, ...] = ()
    gauges: tuple[GaugeLane, ...] = ()
    quantiles: tuple[QuantileLane, ...] = ()


#: The proxy-side lane set (the default; lane names are part of the
#: wire schema pinned in DESIGN.md).
PROXY_LANES = LaneSet(
    counters=(
        CounterLane("throughput_qps", "proxy_queries_total"),
        CounterLane("shed_per_s", "admission_shed_total"),
        CounterLane("origin_per_s", "proxy_origin_requests_total"),
    ),
    gauges=(
        GaugeLane("queue_depth", "admission_queue_depth"),
        GaugeLane("inflight", "admission_inflight"),
        GaugeLane("cache_bytes", "proxy_cache_bytes"),
        GaugeLane("breaker_state", "breaker_state"),
        GaugeLane("overload_state", "admission_overload_state"),
        GaugeLane("snapshot_age_s", "snapshot_age_seconds"),
    ),
    quantiles=(QuantileLane("response_ms", "proxy_response_sim_ms"),),
)

#: The router-side lane set for the sharded tier (lane names are part
#: of the wire schema pinned in DESIGN.md, like PROXY_LANES).
ROUTER_LANES = LaneSet(
    counters=(
        CounterLane("routed_qps", "router_queries_total"),
        CounterLane("failover_per_s", "router_failover_total"),
        CounterLane("tunnel_per_s", "router_tunnel_total"),
    ),
    gauges=(
        GaugeLane("shards_up", "router_shards_up"),
        GaugeLane("shards_total", "router_shards_total"),
    ),
)

#: The origin-side lane set.
ORIGIN_LANES = LaneSet(
    counters=(CounterLane("requests_per_s", "origin_requests_total"),),
    gauges=(GaugeLane("data_version", "origin_data_version"),),
    quantiles=(QuantileLane("server_ms", "origin_server_sim_ms"),),
)


def _window_quantiles(
    buckets: tuple[float, ...], deltas: list[int]
) -> dict[str, float | None]:
    """Quantiles of one window's bucketed observation distribution.

    The reported value is the smallest bucket upper bound whose
    cumulative window count reaches the quantile rank — the classic
    histogram-quantile approximation.  Observations in the +Inf slot
    report the largest finite bound (there is no better estimate).
    """
    total = sum(deltas)
    out: dict[str, float | None] = {}
    for q in QUANTILES:
        key = f"p{round(q * 100):d}"
        if total == 0:
            out[key] = None
            continue
        rank = q * total
        cumulative = 0
        value: float | None = buckets[-1] if buckets else None
        for slot, count in enumerate(deltas):
            cumulative += count
            if cumulative >= rank:
                if slot < len(buckets):
                    value = buckets[slot]
                break
        out[key] = value
    return out


@guarded_by(
    "proxy.telemetry",
    "_registry",
    "_samples",
    "_hit_ratios",
    "_last_t_ms",
    "_counter_totals",
    "_bucket_counts",
)
@read_only("interval_ms", "capacity", "lanes")
class TimeSeriesRecorder:
    """Ring-buffered fixed-interval sampler over a metrics registry.

    ``bind`` attaches (or re-attaches, on warm restart) the registry
    to read from; ``maybe_sample(now_ms)`` is the hot-path call — it
    returns the new sample when ``now_ms`` crossed an interval
    boundary and ``None`` otherwise (including when time stands still
    or runs backwards).  The first call only seeds the counter
    baselines; rates need a left edge.
    """

    enabled = True

    def __init__(
        self,
        interval_ms: float = 1_000.0,
        capacity: int = 512,
        lanes: LaneSet = PROXY_LANES,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError(f"interval must be positive: {interval_ms}")
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.interval_ms = float(interval_ms)
        self.capacity = capacity
        self.lanes = lanes
        self._lock = named_lock("proxy.telemetry")
        self._registry: MetricsRegistry | None = None
        self._samples: deque[dict[str, Any]] = deque(maxlen=capacity)
        #: Each retained sample's hit ratio (``None``: no traffic), in
        #: a ring of the same capacity so the two evict together.
        self._hit_ratios: deque[float | None] = deque(maxlen=capacity)
        self._last_t_ms: float | None = None
        self._counter_totals: dict[str, float] = {}
        self._bucket_counts: dict[str, list[int]] = {}

    # ----------------------------------------------------------- binding
    def bind(self, registry: MetricsRegistry) -> None:
        """Attach the registry to sample from.

        Rebinding (a warm restart swapping in a fresh registry) keeps
        the counter baselines: the next window's deltas go negative
        and clamp to zero — one flat sample, never a negative rate.
        """
        with self._lock:
            self._registry = registry

    # ---------------------------------------------------------- sampling
    def maybe_sample(self, now_ms: float) -> dict[str, Any] | None:
        """Take one sample if ``now_ms`` crossed an interval boundary."""
        with self._lock:
            registry = self._registry
            if registry is None:
                return None
            interval = self.interval_ms
            if self._last_t_ms is None:
                self._last_t_ms = math.floor(now_ms / interval) * interval
                self._seed_baselines(registry)
                return None
            if now_ms < self._last_t_ms + interval:
                return None
            aligned = math.floor(now_ms / interval) * interval
            sample = self._take(registry, aligned, aligned - self._last_t_ms)
            self._last_t_ms = aligned
            self._samples.append(sample)
            self._hit_ratios.append(hit_ratio(sample))
            return dict(sample)

    def _seed_baselines(self, registry: MetricsRegistry) -> None:
        for counter_lane in self.lanes.counters:
            family = registry.get(counter_lane.metric)
            if isinstance(family, (Counter, Gauge)):
                self._counter_totals[counter_lane.name] = family.total()
        for quantile_lane in self.lanes.quantiles:
            family = registry.get(quantile_lane.metric)
            if isinstance(family, Histogram):
                self._bucket_counts[quantile_lane.name] = (
                    family.merged_counts()
                )

    def _take(
        self, registry: MetricsRegistry, t_ms: float, elapsed_ms: float
    ) -> dict[str, Any]:
        elapsed_s = elapsed_ms / 1_000.0
        rates: dict[str, float] = {}
        for counter_lane in self.lanes.counters:
            family = registry.get(counter_lane.metric)
            total = (
                family.total()
                if isinstance(family, (Counter, Gauge))
                else 0.0
            )
            previous = self._counter_totals.get(counter_lane.name, 0.0)
            self._counter_totals[counter_lane.name] = total
            delta = max(0.0, total - previous)
            rates[counter_lane.name] = (
                delta / elapsed_s if elapsed_s > 0 else 0.0
            )
        gauges: dict[str, float] = {}
        for gauge_lane in self.lanes.gauges:
            family = registry.get(gauge_lane.metric)
            gauges[gauge_lane.name] = (
                family.total() if isinstance(family, Gauge) else 0.0
            )
        quantiles: dict[str, dict[str, float | None]] = {}
        for quantile_lane in self.lanes.quantiles:
            family = registry.get(quantile_lane.metric)
            if not isinstance(family, Histogram):
                quantiles[quantile_lane.name] = {
                    f"p{round(q * 100):d}": None for q in QUANTILES
                }
                continue
            counts = family.merged_counts()
            previous_counts = self._bucket_counts.get(quantile_lane.name)
            if previous_counts is None or len(previous_counts) != len(
                counts
            ):
                previous_counts = [0] * len(counts)
            self._bucket_counts[quantile_lane.name] = counts
            deltas = [
                max(0, current - before)
                for current, before in zip(counts, previous_counts)
            ]
            quantiles[quantile_lane.name] = _window_quantiles(
                family.buckets, deltas
            )
        return {
            "t_ms": t_ms,
            "rates": rates,
            "gauges": gauges,
            "quantiles": quantiles,
        }

    # ------------------------------------------------------------ export
    def samples(self) -> list[dict[str, Any]]:
        """The retained samples, oldest first (copies)."""
        with self._lock:
            return [dict(sample) for sample in self._samples]

    def health_window(
        self,
    ) -> tuple[list[float], list[dict[str, Any]], int]:
        """What the health rules read, kept ready: the hit ratio of
        every retained window with traffic (oldest first), copies of
        the newest few samples, and the retained-window count — the
        triple :func:`repro.obs.health.summarize` derives from
        :meth:`samples`."""
        with self._lock:
            windows = len(self._samples)
            newest = [
                dict(self._samples[i])
                for i in range(-min(QUEUE_SATURATION_WINDOWS, windows), 0)
            ]
            ratios = [r for r in self._hit_ratios if r is not None]
        return ratios, newest, windows

    def snapshot(self) -> dict[str, Any]:
        """The wire format (see DESIGN.md): config, lanes, samples."""
        with self._lock:
            return {
                "enabled": True,
                "clock": "sim-ms",
                "interval_ms": self.interval_ms,
                "capacity": self.capacity,
                "lanes": {
                    "rates": [lane.name for lane in self.lanes.counters],
                    "gauges": [lane.name for lane in self.lanes.gauges],
                    "quantiles": [
                        lane.name for lane in self.lanes.quantiles
                    ],
                },
                "samples": [dict(sample) for sample in self._samples],
            }


class NullTimeSeries:
    """The disabled recorder: samples nothing, stores nothing."""

    enabled = False
    interval_ms = 0.0
    capacity = 0
    lanes = LaneSet()

    def bind(self, registry: MetricsRegistry) -> None:
        return None

    def maybe_sample(self, now_ms: float) -> dict[str, Any] | None:
        return None

    def samples(self) -> list[dict[str, Any]]:
        return []

    def snapshot(self) -> dict[str, Any]:
        return {
            "enabled": False,
            "clock": "sim-ms",
            "interval_ms": 0.0,
            "capacity": 0,
            "lanes": {"rates": [], "gauges": [], "quantiles": []},
            "samples": [],
        }


#: The singleton no-op recorder instrumentation defaults to.
NULL_TIMESERIES = NullTimeSeries()
