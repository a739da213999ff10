"""TimeSeriesRecorder: alignment, binding once, wraparound, quantiles,
and the lanes its owner names."""

import pytest

from repro.cluster import Shard, ShardRouter
from repro.core.proxy import FunctionProxy
from repro.obs.instrument import OriginInstrumentation, ProxyInstrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    NULL_TIMESERIES,
    ORIGIN_LANES,
    PROXY_LANES,
    ROUTER_LANES,
    CounterLane,
    GaugeLane,
    LaneSet,
    NullTimeSeries,
    QuantileLane,
    TimeSeriesRecorder,
)
from repro.server.origin import OriginServer

LANES = LaneSet(
    counters=(CounterLane("served_per_s", "served_total"),),
    gauges=(GaugeLane("depth", "depth_gauge"),),
    quantiles=(QuantileLane("latency_ms", "latency_hist"),),
)


def make(interval_ms=1_000.0, capacity=8):
    registry = MetricsRegistry()
    counter = registry.counter("served_total")
    gauge = registry.gauge("depth_gauge")
    hist = registry.histogram(
        "latency_hist", buckets=(10.0, 100.0, 1_000.0)
    )
    recorder = TimeSeriesRecorder(interval_ms=interval_ms, capacity=capacity)
    recorder.bind(registry, LANES)
    return recorder, registry, counter, gauge, hist


class TestSampling:
    def test_unbound_recorder_never_samples(self):
        recorder = TimeSeriesRecorder()
        assert recorder.maybe_sample(0.0) is None
        assert recorder.maybe_sample(5_000.0) is None
        assert recorder.samples() == []

    def test_first_call_only_seeds_baselines(self):
        recorder, _, counter, _, _ = make()
        counter.inc(100.0)  # pre-existing traffic, not a window delta
        assert recorder.maybe_sample(250.0) is None
        counter.inc(5.0)
        sample = recorder.maybe_sample(1_000.0)
        # Only the post-seed increments count toward the first rate.
        assert sample["rates"]["served_per_s"] == 5.0

    def test_no_sample_inside_the_window(self):
        recorder, _, counter, _, _ = make()
        recorder.maybe_sample(0.0)
        counter.inc()
        assert recorder.maybe_sample(400.0) is None
        assert recorder.maybe_sample(999.9) is None
        # Time standing still or running backwards never samples.
        assert recorder.maybe_sample(0.0) is None
        assert recorder.samples() == []

    def test_samples_align_to_the_interval_grid(self):
        recorder, _, counter, _, _ = make()
        recorder.maybe_sample(123.4)
        counter.inc()
        first = recorder.maybe_sample(1_234.5)
        counter.inc()
        second = recorder.maybe_sample(2_999.9)
        assert first["t_ms"] == 1_000.0
        assert second["t_ms"] == 2_000.0

    def test_multi_interval_jump_averages_into_one_sample(self):
        recorder, _, counter, _, _ = make()
        recorder.maybe_sample(0.0)
        counter.inc(10.0)
        sample = recorder.maybe_sample(5_000.0)
        # One sample covers the whole gap; the rate is averaged over
        # the five simulated seconds, and the buffer holds one entry.
        assert sample["t_ms"] == 5_000.0
        assert sample["rates"]["served_per_s"] == 2.0
        assert len(recorder.samples()) == 1

    def test_gauge_lane_is_a_point_sample(self):
        recorder, _, _, gauge, _ = make()
        recorder.maybe_sample(0.0)
        gauge.set(7.0)
        sample = recorder.maybe_sample(1_000.0)
        assert sample["gauges"]["depth"] == 7.0


class TestRingBuffer:
    def test_wraparound_keeps_the_newest_samples(self):
        recorder, _, counter, _, _ = make(capacity=3)
        recorder.maybe_sample(0.0)
        for step in range(1, 6):
            counter.inc()
            recorder.maybe_sample(step * 1_000.0)
        retained = recorder.samples()
        assert [s["t_ms"] for s in retained] == [
            3_000.0, 4_000.0, 5_000.0,
        ]
        assert len(recorder.snapshot()["samples"]) == 3


class TestCounterReset:
    def test_a_second_bind_raises(self):
        """The recorder reads one registry: counters never go back, so
        no window's rate can go negative."""
        recorder, _, counter, _, _ = make()
        recorder.maybe_sample(0.0)
        counter.inc(50.0)
        assert (
            recorder.maybe_sample(1_000.0)["rates"]["served_per_s"] == 50.0
        )
        with pytest.raises(RuntimeError, match="binds once"):
            recorder.bind(MetricsRegistry(), LANES)
        counter.inc(5.0)
        assert (
            recorder.maybe_sample(2_000.0)["rates"]["served_per_s"] == 5.0
        )


class TestWindowQuantiles:
    def test_empty_window_reports_none(self):
        recorder, _, _, _, hist = make()
        recorder.maybe_sample(0.0)
        hist.observe(50.0)
        busy = recorder.maybe_sample(1_000.0)
        assert busy["quantiles"]["latency_ms"]["p50"] == 100.0
        # The next window has no observations: None, not a stale value.
        idle = recorder.maybe_sample(2_000.0)
        assert idle["quantiles"]["latency_ms"] == {"p50": None, "p95": None}

    def test_quantiles_diff_only_the_window(self):
        recorder, _, _, _, hist = make()
        for _ in range(10):
            hist.observe(5.0)  # pre-window history, all fast
        recorder.maybe_sample(0.0)
        hist.observe(500.0)
        sample = recorder.maybe_sample(1_000.0)
        # Only the window's single slow observation is ranked.
        assert sample["quantiles"]["latency_ms"]["p50"] == 1_000.0
        assert sample["quantiles"]["latency_ms"]["p95"] == 1_000.0

    def test_mixed_window_ranks_by_bucket_bound(self):
        recorder, _, _, _, hist = make()
        recorder.maybe_sample(0.0)
        for value in (5.0, 50.0, 500.0):
            hist.observe(value)
        quantiles = recorder.maybe_sample(1_000.0)["quantiles"]["latency_ms"]
        assert quantiles["p50"] == 100.0
        assert quantiles["p95"] == 1_000.0


class TestWireShape:
    def test_snapshot_schema(self):
        recorder, _, counter, _, _ = make(interval_ms=500.0, capacity=4)
        recorder.maybe_sample(0.0)
        counter.inc()
        recorder.maybe_sample(500.0)
        snapshot = recorder.snapshot()
        assert snapshot["enabled"] is True
        assert snapshot["clock"] == "sim-ms"
        assert snapshot["interval_ms"] == 500.0
        assert snapshot["capacity"] == 4
        assert snapshot["lanes"] == {
            "rates": ["served_per_s"],
            "gauges": ["depth"],
            "quantiles": ["latency_ms"],
        }
        (sample,) = snapshot["samples"]
        assert set(sample) == {"t_ms", "rates", "gauges", "quantiles"}

    def test_proxy_lane_names_are_pinned(self):
        assert [lane.name for lane in PROXY_LANES.counters] == [
            "throughput_qps", "shed_per_s", "origin_per_s",
        ]
        assert [lane.name for lane in PROXY_LANES.gauges] == [
            "queue_depth", "inflight", "cache_bytes",
            "breaker_state", "overload_state", "snapshot_age_s",
        ]
        assert [lane.name for lane in PROXY_LANES.quantiles] == [
            "response_ms"
        ]

    def test_origin_lane_names_are_pinned(self):
        assert [lane.name for lane in ORIGIN_LANES.counters] == [
            "requests_per_s"
        ]
        assert [lane.name for lane in ORIGIN_LANES.gauges] == [
            "data_version"
        ]
        assert [lane.name for lane in ORIGIN_LANES.quantiles] == [
            "server_ms"
        ]


class TestValidationAndNull:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(interval_ms=0.0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(capacity=0)

    def test_null_recorder_is_inert(self):
        null = NullTimeSeries()
        null.bind(MetricsRegistry(), LANES)
        assert null.enabled is False
        assert null.maybe_sample(1_000.0) is None
        assert null.samples() == []
        assert null.snapshot()["enabled"] is False
        assert NULL_TIMESERIES.enabled is False


def _drive_proxy(origin, recorder, queries):
    proxy = FunctionProxy(
        origin,
        origin.templates,
        instrumentation=ProxyInstrumentation(timeseries=recorder),
    )
    for bound in queries:
        proxy.serve(bound)


def _drive_origin(origin, recorder, queries):
    # What the origin app does per request: execute, then sample.
    site = OriginServer(
        origin.catalog,
        origin.templates,
        instrumentation=OriginInstrumentation(timeseries=recorder),
    )
    for bound in queries:
        site.execute_bound(bound)
        site.instrumentation.sample_telemetry()


def _drive_router(origin, recorder, queries):
    shards = [
        Shard(f"shard-{i}", FunctionProxy(origin, origin.templates))
        for i in range(2)
    ]
    router = ShardRouter(shards, timeseries=recorder)
    for bound in queries:
        router.serve(bound)


class TestOwnerLanes:
    """A recorder samples the lanes of whoever binds it."""

    @pytest.mark.parametrize(
        "drive, lanes",
        [
            (_drive_proxy, PROXY_LANES),
            (_drive_origin, ORIGIN_LANES),
            (_drive_router, ROUTER_LANES),
        ],
        ids=["proxy", "origin", "router"],
    )
    def test_a_plain_recorder_samples_its_owners_lanes(
        self, origin, radial_params, drive, lanes
    ):
        queries = [
            origin.templates.bind(
                "skyserver.radial", dict(radial_params, ra=161.0 + i)
            )
            for i in range(6)
        ]
        recorder = TimeSeriesRecorder(interval_ms=100.0)
        drive(origin, recorder, queries)
        snapshot = recorder.snapshot()
        assert snapshot["lanes"] == {
            "rates": [lane.name for lane in lanes.counters],
            "gauges": [lane.name for lane in lanes.gauges],
            "quantiles": [lane.name for lane in lanes.quantiles],
        }
        rate = lanes.counters[0].name
        assert any(
            sample["rates"][rate] > 0 for sample in snapshot["samples"]
        ), snapshot["samples"]
