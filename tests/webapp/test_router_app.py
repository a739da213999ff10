"""The shard-router HTTP surface: routed search, topology, drain."""

import pytest

flask = pytest.importorskip("flask")

from repro.admission import (
    RETRY_AFTER_SECONDS,
    AdmissionConfig,
    TenantQuota,
)
from repro.cluster import RouterConfig, Shard, ShardRouter
from repro.core.proxy import FunctionProxy
from repro.core.schemes import CachingScheme
from repro.faults.shard import ShardCrashPlan, ShardFaultWindow
from repro.obs.events import EV_SHARD_CRASH, EventRecorder
from repro.obs.timeseries import TimeSeriesRecorder
from repro.sqlparser.errors import ParseError
from repro.webapp.proxy_app import create_proxy_app
from repro.webapp.router_app import create_router_app

QUOTA_CONFIG = AdmissionConfig(
    quotas={"metered": TenantQuota(rate_per_s=0.001, burst=1.0)}
)


def make_router(origin, n_shards=3, fallback=True, **kwargs):
    shards = tuple(
        Shard(
            f"shard-{i}",
            FunctionProxy(
                origin,
                origin.templates,
                admission=QUOTA_CONFIG,
            ),
        )
        for i in range(n_shards)
    )
    tunnel = (
        FunctionProxy(
            origin, origin.templates, scheme=CachingScheme.NO_CACHE
        )
        if fallback
        else None
    )
    return ShardRouter(shards, fallback=tunnel, **kwargs)


@pytest.fixture()
def router(origin):
    return make_router(origin)


@pytest.fixture()
def client(router):
    return create_router_app(router).test_client()


def radial(client, ra=164.0, **kwargs):
    return client.get(f"/search/Radial?ra={ra}&dec=8&radius=10", **kwargs)


class TestRoutedSearch:
    def test_search_carries_shard_headers(self, client, router):
        response = radial(client)
        assert response.status_code == 200
        assert response.headers["X-Shard"] in router.shard_ids
        assert response.headers["X-Shard-Rerouted"] == "0"
        assert response.headers["X-Proxy-Outcome"] == "served"

    def test_bad_form_is_400(self, client):
        assert client.get("/search/NoSuchForm?x=1").status_code == 400

    @pytest.mark.parametrize(
        "url",
        [
            "/search/Radial?ra=nan&dec=1&radius=1",
            "/search/Rectangular?min_ra=163&max_ra=inf&min_dec=7&max_dec=9",
        ],
    )
    def test_non_finite_region_is_400_not_a_crash(self, client, router, url):
        assert client.get(url).status_code == 400
        assert all(
            len(router.shard(shard_id).proxy.stats) == 0
            for shard_id in router.shard_ids
        )
        assert radial(client).status_code == 200

    @pytest.mark.parametrize(
        "url, status",
        [
            ("/search/Rectangular?min_ra=10&max_ra=5&min_dec=1&max_dec=2", 400),
            ("/search/Radial?ra=152.5&dec=25.7&radius=4800", 200),
            ("/search/Radial?ra=152.5&dec=25.7&radius=21600", 400),
        ],
    )
    def test_out_of_range_search_is_answered_at_once(
        self, client, url, status
    ):
        """What the site's functions refuse is a ``query-error`` (400),
        a radius the template cannot describe is refused at binding
        (400), a cone of many degrees costs milliseconds, and none of
        them takes the tier down for the next request."""
        response = client.get(url)
        assert response.status_code == status
        if "radius=21600" in url:
            assert "$radius=21600" in response.get_json()["error"]
        elif status == 400:
            assert response.headers["X-Proxy-Outcome"] == "failed"
            assert response.get_json()["reason"] == "query-error"
        assert radial(client).status_code == 200

    def test_reroute_header_on_crashed_primary(self, origin):
        probe = make_router(origin)
        bound = origin.templates.bind_form(
            "Radial", {"ra": "164.0", "dec": "8", "radius": "10"}
        )
        primary = probe.ring.primary(probe.route_key(bound))
        router = make_router(
            origin,
            crash_plan=ShardCrashPlan(
                faults=(ShardFaultWindow(primary, "crash", 0.0),)
            ),
        )
        client = create_router_app(router).test_client()
        response = radial(client)
        assert response.status_code == 200
        assert response.headers["X-Shard-Rerouted"] == "1"
        assert response.headers["X-Shard"] != primary

    def test_quota_shed_is_429_with_retry_after(self, client):
        headers = {"X-Tenant": "metered"}
        assert radial(client, headers=headers).status_code == 200
        response = radial(client, ra=165.0, headers=headers)
        assert response.status_code == 429
        assert response.headers["X-Proxy-Outcome"] == "shed"
        assert response.headers["Retry-After"] == str(RETRY_AFTER_SECONDS)
        payload = response.get_json()
        assert payload["reason"] == "quota"
        assert payload["shard"]


class RejectingOrigin:
    """An origin whose executor refuses every query as malformed."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute_bound(self, bound):
        raise ParseError("bad SQL")


class TestSingleProxyParity:
    """The router answers a search exactly as a single proxy would:
    one outcome -> response mapping serves both apps."""

    def test_carries_every_single_proxy_header(self, client, origin):
        routed = radial(client)
        single = radial(
            create_proxy_app(
                FunctionProxy(origin, origin.templates)
            ).test_client()
        )
        proxy_headers = {h for h in single.headers.keys() if h[:2] == "X-"}
        assert {"X-Proxy-Retries", "X-Cache-Efficiency"} <= proxy_headers
        assert proxy_headers <= set(routed.headers.keys())
        assert routed.headers["X-Proxy-Retries"] == "0"
        assert routed.headers["X-Cache-Efficiency"] == "0.0000"
        assert routed.data == single.data

    def test_origin_query_error_is_400_like_the_proxy_app(
        self, router, client, origin
    ):
        for shard_id in router.shard_ids:
            router.shard(shard_id).proxy.origin = RejectingOrigin(origin)
        single_proxy = FunctionProxy(origin, origin.templates)
        single_proxy.origin = RejectingOrigin(origin)
        single = radial(create_proxy_app(single_proxy).test_client())
        routed = radial(client)
        assert single.status_code == routed.status_code == 400
        assert routed.headers["X-Proxy-Outcome"] == "failed"
        assert routed.get_json() == single.get_json() == {
            "error": "origin rejected the query",
            "reason": "query-error",
            "retries": 0,
        }


class TestRouterTelemetryEndpoints:
    """The tier serves its own registry, time series and flight
    recorder — the same three routes the proxy and origin apps do."""

    @pytest.fixture()
    def live(self, origin):
        router = make_router(
            origin,
            events=EventRecorder(capacity=8),
            timeseries=TimeSeriesRecorder(interval_ms=1_000.0),
            crash_plan=ShardCrashPlan(
                faults=(
                    ShardFaultWindow("shard-0", "hang", 0.0),
                    ShardFaultWindow("shard-1", "hang", 0.0, 10.0),
                )
            ),
        )
        return router, create_router_app(router).test_client()

    def test_metrics_exposes_the_router_families(self, client):
        radial(client)
        response = client.get("/metrics")
        assert response.status_code == 200
        assert (
            response.headers["Content-Type"]
            == "text/plain; version=0.0.4; charset=utf-8"
        )
        text = response.get_data(as_text=True)
        assert "router_queries_total 1" in text
        assert "router_shards_up 3" in text

    def test_timeseries_samples_the_router_lanes(self, live):
        router, client = live
        radial(client)
        router.clock.advance(1_000.0)
        radial(client)
        payload = client.get("/timeseries").get_json()
        assert payload["enabled"] is True
        assert payload["lanes"]["gauges"] == ["shards_up", "shards_total"]
        assert payload["samples"]

    def test_events_honours_n(self, live):
        _router, client = live
        radial(client)
        payload = client.get("/events").get_json()
        assert [e["code"] for e in payload["events"]] == [
            EV_SHARD_CRASH, EV_SHARD_CRASH,
        ]
        limited = client.get("/events?n=1").get_json()
        assert len(limited["events"]) == 1
        assert limited["total"] == 2

    def test_recorders_are_off_by_default(self, client):
        assert client.get("/timeseries").get_json()["enabled"] is False
        assert client.get("/events").get_json()["enabled"] is False

    def test_no_tracer_no_trace_route(self, client):
        assert client.get("/trace/recent").status_code == 404
        assert client.get("/profile").status_code == 404


class TestShardsEndpoint:
    def test_topology_payload(self, client, router):
        radial(client)
        payload = client.get("/shards").get_json()
        assert {s["shard_id"] for s in payload["shards"]} == set(
            router.shard_ids
        )
        assert payload["failover"] is True
        assert payload["decisions_total"] == 1
        assert payload["drained"] == []

    def test_health_endpoint(self, client):
        response = client.get("/health")
        assert response.status_code == 200
        payload = response.get_json()
        assert payload["shards_total"] == 3
        assert payload["shards_up"] == 3

    def test_decisions_endpoint(self, client):
        radial(client)
        radial(client, ra=165.0)
        payload = client.get("/decisions?n=1").get_json()
        assert len(payload["decisions"]) == 1
        decision = payload["decisions"][0]
        assert decision["seq"] == 2
        assert decision["dispatched"] is not None


class TestDrainEndpoint:
    def test_drain_hands_off_and_conflicts_on_repeat(self, client):
        radial(client)
        first = client.post("/drain/shard-0")
        assert first.status_code == 200
        assert first.get_json()["handoff"]["source"] == "shard-0"
        assert client.post("/drain/shard-0").status_code == 409

    def test_unknown_shard_is_404(self, client):
        assert client.post("/drain/ghost").status_code == 404

    def test_drained_shard_visible_in_topology(self, client):
        client.post("/drain/shard-1")
        payload = client.get("/shards").get_json()
        assert payload["drained"] == ["shard-1"]
