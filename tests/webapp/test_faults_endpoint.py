"""Fault-plan control endpoints and outcome-aware HTTP statuses."""

import pytest

flask = pytest.importorskip("flask")

from repro.core.proxy import FunctionProxy
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.resilience import BreakerState
from repro.webapp.proxy_app import create_proxy_app

ALWAYS_DOWN = {"outages": [{"start_ms": 0.0, "end_ms": 1e12}]}


@pytest.fixture()
def proxy(origin):
    return FunctionProxy(origin, origin.templates)


@pytest.fixture()
def client(proxy):
    return create_proxy_app(proxy).test_client()


def radial(client, ra=164.0, radius=10.0):
    return client.get(f"/search/Radial?ra={ra}&dec=8&radius={radius}")


def open_breaker(proxy, client):
    ra = 100.0
    while proxy.breaker.state is not BreakerState.OPEN:
        radial(client, ra=ra, radius=0.5)
        ra += 5.0


class TestFaultPlanEndpoints:
    def test_lifecycle(self, client):
        before = client.get("/faults").get_json()
        assert before["installed"] is False

        installed = client.post("/faults", json=ALWAYS_DOWN)
        assert installed.status_code == 200
        assert installed.get_json()["installed"] is True

        status = client.get("/faults").get_json()
        assert status["installed"] is True
        assert status["plan"]["outages"][0]["end_ms"] == 1e12
        assert status["breaker"] == "closed"
        assert "clock_ms" in status

        removed = client.delete("/faults").get_json()
        assert removed == {"installed": False, "removed": True}
        assert client.delete("/faults").get_json()["removed"] is False

    def test_invalid_plan_is_400(self, client):
        bad = client.post("/faults", json={"error_rate": 5.0})
        assert bad.status_code == 400
        assert "error" in bad.get_json()
        assert client.post("/faults", json=[1, 2]).status_code == 400

    def test_misread_plans_are_400(self, client):
        for body in (
            {"version_bumps": "500"},
            {"outages": [{"start_ms": float("nan"), "end_ms": 5}]},
        ):
            response = client.post("/faults", json=body)
            assert response.status_code == 400, body
            assert "error" in response.get_json()
        assert client.get("/faults").get_json()["installed"] is False

    def test_bumps_for_an_origin_that_cannot_bump_are_400(self, origin):
        class RemoteLike:
            """The surface of ``HttpOriginClient``: no bump."""

            def __init__(self, inner):
                self.templates = inner.templates
                self.catalog = inner.catalog
                self.data_version = inner.data_version
                self.execute_bound = inner.execute_bound

        remote = RemoteLike(origin)
        client = create_proxy_app(
            FunctionProxy(remote, remote.templates)
        ).test_client()
        response = client.post("/faults", json={"version_bumps": [500.0]})
        assert response.status_code == 400
        assert "cannot bump" in response.get_json()["error"]
        assert client.get("/faults").get_json()["installed"] is False

    def test_round_trips_through_plan_wire_form(self, client):
        plan = FaultPlan(
            seed=3,
            outages=(OutageWindow(10.0, 20.0),),
            error_rate=0.1,
        )
        client.post("/faults", json=plan.to_dict())
        echoed = client.get("/faults").get_json()["plan"]
        assert FaultPlan.from_dict(echoed) == plan


class TestOutcomeStatuses:
    def test_healthy_serves_200_with_outcome_header(self, client):
        response = radial(client)
        assert response.status_code == 200
        assert response.headers["X-Proxy-Outcome"] == "served"
        assert response.headers["X-Proxy-Retries"] == "0"

    def test_unanswerable_query_is_503_not_a_crash(self, client):
        client.post("/faults", json=ALWAYS_DOWN)
        response = radial(client)
        assert response.status_code == 503
        payload = response.get_json()
        assert payload["reason"] == "outage"
        assert payload["retries"] == 2

    def test_stale_exact_hit_is_200_marked_degraded(self, proxy, client):
        radial(client)  # warm
        client.post("/faults", json=ALWAYS_DOWN)
        open_breaker(proxy, client)
        response = radial(client)
        assert response.status_code == 200
        assert response.headers["X-Proxy-Outcome"] == "degraded"

    def test_partial_overlap_is_206(self, proxy, client):
        radial(client, radius=12.0)  # warm a region
        client.post("/faults", json=ALWAYS_DOWN)
        open_breaker(proxy, client)
        response = radial(client, ra=164.25, radius=12.0)
        assert response.status_code == 206
        assert response.headers["X-Proxy-Outcome"] == "partial"

    def test_stats_report_availability(self, proxy, client):
        radial(client)
        client.post("/faults", json=ALWAYS_DOWN)
        radial(client, ra=100.0, radius=0.5)
        payload = client.get("/stats").get_json()
        assert payload["answered_fraction"] == pytest.approx(0.5)
        assert payload["total_retries"] >= 2
        assert payload["outcome_fractions"]["failed"] == pytest.approx(0.5)
