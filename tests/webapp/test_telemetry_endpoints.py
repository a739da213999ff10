"""The live-telemetry HTTP surface: /timeseries, /events, /health.

Plus the pinned Prometheus content type on ``/metrics`` and the
admission gauges back-filled into ``GET /admission``.
"""

import pytest

flask = pytest.importorskip("flask")

from repro.admission import (
    AdmissionConfig,
    TenantQuota,
)
from repro.core.proxy import FunctionProxy
from repro.obs.events import EV_BREAKER_OPEN, EV_SHED_ACTIVATED, EventRecorder
from repro.obs.instrument import OriginInstrumentation, ProxyInstrumentation
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.obs.timeseries import TimeSeriesRecorder
from repro.server.origin import OriginServer
from repro.webapp.origin_app import create_origin_app
from repro.webapp.proxy_app import create_proxy_app

RADIAL = "/search/Radial?ra=164&dec=8&radius=10"


@pytest.fixture()
def proxy(origin):
    """A proxy built with live telemetry recorders."""
    return FunctionProxy(
        origin,
        origin.templates,
        instrumentation=ProxyInstrumentation(
            timeseries=TimeSeriesRecorder(interval_ms=1_000.0),
            events=EventRecorder(capacity=16),
        ),
    )


@pytest.fixture()
def client(proxy):
    return create_proxy_app(proxy).test_client()


@pytest.fixture()
def bare(origin):
    """The app of a proxy built with the default recorders."""
    return create_proxy_app(
        FunctionProxy(origin, origin.templates)
    ).test_client()


class TestMetricsContentType:
    """The exposition content type is pinned, byte for byte."""

    EXACT = "text/plain; version=0.0.4; charset=utf-8"

    def test_constant_is_pinned(self):
        assert PROMETHEUS_CONTENT_TYPE == self.EXACT

    def test_proxy_metrics_content_type(self, client):
        response = client.get("/metrics")
        assert response.status_code == 200
        assert response.headers["Content-Type"] == self.EXACT

    def test_origin_metrics_content_type(self, origin):
        response = create_origin_app(origin).test_client().get("/metrics")
        assert response.status_code == 200
        assert response.headers["Content-Type"] == self.EXACT


class TestTimeseriesEndpoint:
    def test_snapshot_round_trip(self, proxy, client):
        client.get(RADIAL)
        proxy.clock.advance(1_000.0)
        client.get(RADIAL)
        payload = client.get("/timeseries").get_json()
        assert payload["enabled"] is True
        assert payload["clock"] == "sim-ms"
        assert payload["interval_ms"] == 1_000.0
        assert payload["lanes"]["rates"] == [
            "throughput_qps", "shed_per_s", "origin_per_s",
        ]
        for sample in payload["samples"]:
            assert sample["t_ms"] % 1_000.0 == 0.0

    def test_disabled_by_default(self, bare):
        payload = bare.get("/timeseries").get_json()
        assert payload == {
            "enabled": False,
            "clock": "sim-ms",
            "interval_ms": 0.0,
            "capacity": 0,
            "lanes": {"rates": [], "gauges": [], "quantiles": []},
            "samples": [],
        }


class TestEventsEndpoint:
    def test_snapshot_and_limit(self, proxy, client):
        proxy.obs.events.emit(EV_BREAKER_OPEN, at_ms=10.0)
        proxy.obs.events.emit(EV_SHED_ACTIVATED, at_ms=20.0)
        payload = client.get("/events").get_json()
        assert payload["enabled"] is True
        assert payload["total"] == 2
        assert [e["code"] for e in payload["events"]] == ["EV01", "EV04"]
        limited = client.get("/events?n=1").get_json()
        assert [e["code"] for e in limited["events"]] == ["EV04"]
        assert limited["total"] == 2  # lifetime count is untouched

    def test_disabled_by_default(self, bare):
        payload = bare.get("/events").get_json()
        assert payload["enabled"] is False
        assert payload["events"] == []


class TestHealthEndpoint:
    def test_healthy_traffic_is_200(self, proxy, client):
        for _ in range(3):
            client.get(RADIAL)
            proxy.clock.advance(1_000.0)
        payload = client.get("/health").get_json()
        assert client.get("/health").status_code == 200
        assert payload["enabled"] is True
        assert payload["status"] == "healthy"
        assert [r["id"] for r in payload["rules"]] == [
            "HR01", "HR02", "HR03", "HR04", "HR05", "HR06",
        ]

    def test_unhealthy_answers_503(self, proxy, client):
        # Drive a shed spike straight through the metrics registry:
        # one window where nearly every arrival was turned away.
        proxy.obs.timeseries.maybe_sample(proxy.clock.now_ms)
        registry = proxy.obs.registry
        registry.get("admission_shed_total").labels(
            reason="queue-full"
        ).inc(60.0)
        registry.get("proxy_queries_total").labels(
            status="exact", template="t"
        ).inc(1.0)
        proxy.clock.advance(2_000.0)
        proxy.obs.timeseries.maybe_sample(proxy.clock.now_ms)
        response = client.get("/health")
        assert response.status_code == 503
        payload = response.get_json()
        assert payload["status"] == "unhealthy"
        (hr02,) = [r for r in payload["rules"] if r["id"] == "HR02"]
        assert hr02["status"] == "unhealthy"

    def test_disabled_monitor_reports_200(self, bare):
        response = bare.get("/health")
        assert response.status_code == 200
        assert response.get_json()["enabled"] is False


class TestOriginTelemetry:
    @pytest.fixture()
    def live_origin(self, origin):
        """An origin over the session's data, built with live
        telemetry recorders."""
        return OriginServer(
            origin.catalog,
            origin.templates,
            instrumentation=OriginInstrumentation(
                timeseries=TimeSeriesRecorder(interval_ms=100.0),
                events=EventRecorder(capacity=8),
            ),
        )

    @pytest.fixture()
    def origin_client(self, live_origin):
        return create_origin_app(live_origin).test_client()

    def test_timeseries_uses_origin_lanes(self, origin_client):
        for _ in range(4):
            origin_client.get(RADIAL)
        payload = origin_client.get("/timeseries").get_json()
        assert payload["enabled"] is True
        assert payload["lanes"] == {
            "rates": ["requests_per_s"],
            "gauges": ["data_version"],
            "quantiles": ["server_ms"],
        }
        assert payload["samples"]  # served time crossed 100 ms windows

    def test_events_surface_exists(self, origin_client):
        payload = origin_client.get("/events").get_json()
        assert payload["enabled"] is True
        assert payload["events"] == []

    def test_events_honours_n_like_the_proxy_app(
        self, live_origin, origin_client
    ):
        recorder = live_origin.instrumentation.events
        recorder.emit(EV_BREAKER_OPEN, at_ms=10.0)
        recorder.emit(EV_SHED_ACTIVATED, at_ms=20.0)
        limited = origin_client.get("/events?n=1").get_json()
        assert [e["code"] for e in limited["events"]] == ["EV04"]
        assert limited["total"] == 2

    def test_health_merges_status_fields(self, origin_client):
        origin_client.get(RADIAL)
        response = origin_client.get("/health")
        assert response.status_code == 200
        payload = response.get_json()
        assert payload["status"] == "healthy"
        assert payload["queries_served"] >= 1
        assert "data_version" in payload
        assert "tables" in payload


class TestAdmissionGauges:
    @pytest.fixture()
    def metered_proxy(self, origin):
        config = AdmissionConfig(
            quotas={"metered": TenantQuota(rate_per_s=0.001, burst=2.0)}
        )
        return FunctionProxy(origin, origin.templates, admission=config)

    def test_quota_tokens_in_admission_payload(self, metered_proxy):
        client = create_proxy_app(metered_proxy).test_client()
        client.get(RADIAL, headers={"X-Tenant": "metered"})
        payload = client.get("/admission").get_json()
        assert payload["quota_tokens"] == {"metered": 1.0}
        assert payload["inflight"] == 0

    def test_inflight_and_quota_gauges_in_metrics(self, metered_proxy):
        client = create_proxy_app(metered_proxy).test_client()
        client.get(RADIAL, headers={"X-Tenant": "metered"})
        lines = client.get("/metrics").get_data(as_text=True).splitlines()
        assert "admission_inflight 0" in lines
        assert 'admission_quota_tokens{tenant="metered"} 1' in lines
