"""``GET /profile`` on both Flask apps.

The acceptance path: serve a base query, an exactly contained query,
and an overlapping query through the proxy app, then read back the
profiler aggregate and find nonzero counts for the hot-path stages
(``check``, ``probe.array``, ``local_eval``, ``merge``).  Skips
cleanly when Flask is not installed.
"""

import pytest

flask = pytest.importorskip("flask")

from repro.core.proxy import FunctionProxy
from repro.obs.instrument import OriginInstrumentation, ProxyInstrumentation
from repro.obs.profiling import Profiler
from repro.server.origin import OriginServer
from repro.webapp.origin_app import create_origin_app
from repro.webapp.proxy_app import create_proxy_app

BASE = "/search/Radial?ra=164&dec=8&radius=10"
CONTAINED = "/search/Radial?ra=164&dec=8&radius=4"
# The radial radius is arcminutes: a 0.2-degree (12') center shift
# against two 10' radii overlaps without containment.
OVERLAP = "/search/Radial?ra=164.2&dec=8&radius=10"


@pytest.fixture()
def profiled_client(origin):
    proxy = FunctionProxy(
        origin,
        origin.templates,
        instrumentation=ProxyInstrumentation(profiler=Profiler(top_k=5)),
    )
    return create_proxy_app(proxy).test_client()


class TestProxyProfile:
    def test_disabled_by_default(self, origin):
        client = create_proxy_app(
            FunctionProxy(origin, origin.templates)
        ).test_client()
        payload = client.get("/profile").get_json()
        assert payload["enabled"] is False
        assert payload["stages"] == {}

    def test_empty_profile_before_any_query(self, profiled_client):
        payload = profiled_client.get("/profile").get_json()
        assert payload["enabled"] is True
        assert payload["stages"] == {}
        assert payload["slowest_queries"] == []

    def test_hot_path_stages_populated(self, profiled_client):
        for url in (BASE, CONTAINED, OVERLAP):
            assert profiled_client.get(url).status_code == 200
        payload = profiled_client.get("/profile").get_json()
        stages = payload["stages"]
        for stage in ("check", "probe.array", "local_eval", "merge"):
            assert stages[stage]["calls"] > 0, stage
        # The contained query was answered from cache: tuples were
        # evaluated locally, and the check counted candidate regions.
        assert stages["local_eval"]["counters"]["tuples_evaluated"] > 0
        assert stages["probe.array"]["counters"]["candidates"] > 0
        # Simulated and wall clocks both advanced through `check`.
        assert stages["check"]["cum_sim_ms"] > 0
        assert stages["check"]["cum_wall_ms"] > 0
        # Every served query was offered to the slowest-K capture.
        assert len(payload["slowest_queries"]) == 3

    def test_text_format(self, profiled_client):
        profiled_client.get(BASE)
        response = profiled_client.get("/profile?format=text")
        assert response.status_code == 200
        assert "text/plain" in response.content_type
        text = response.get_data(as_text=True)
        assert "sorted by cum" in text
        assert "check" in text

    def test_text_sort_param(self, profiled_client):
        profiled_client.get(BASE)
        response = profiled_client.get("/profile?format=text&sort=calls")
        assert "sorted by calls" in response.get_data(as_text=True)

    def test_unknown_sort_is_400(self, profiled_client):
        response = profiled_client.get("/profile?format=text&sort=rows")
        assert response.status_code == 400

    def test_unknown_format_is_400(self, profiled_client):
        response = profiled_client.get("/profile?format=xml")
        assert response.status_code == 400


class TestOriginProfile:
    def test_form_executions_profiled(self, origin):
        # A profiled origin over the session's catalog and templates;
        # the shared origin itself keeps its null profiler.
        profiled = OriginServer(
            origin.catalog,
            origin.templates,
            instrumentation=OriginInstrumentation(profiler=Profiler(top_k=5)),
        )
        client = create_origin_app(profiled).test_client()
        assert client.get(BASE).status_code == 200
        stages = client.get("/profile").get_json()["stages"]
        assert stages["origin.form"]["calls"] > 0
        assert stages["origin.form"]["counters"]["rows"] > 0
        # The cost model's simulated server time rode along.
        assert stages["origin.form"]["cum_sim_ms"] > 0
        # Relational operator counters reached the same profiler.
        assert stages["executor.scan"]["counters"]["rows"] > 0
        assert stages["executor.project"]["counters"]["rows"] > 0

    def test_disabled_by_default(self, origin):
        client = create_origin_app(origin).test_client()
        assert client.get("/profile").get_json()["enabled"] is False
