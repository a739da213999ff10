"""The /explain endpoints and the stitched proxy/origin trace.

The tentpole acceptance path: a query replayed through the Flask proxy
against a live Flask origin yields one end-to-end trace (the same
trace id on both sides' ``/trace/recent``), a ``/explain/<query_id>``
response naming the decision action and every candidate examined, and
exemplar-annotated latency buckets referencing valid trace ids.
Skips cleanly when Flask is not installed.
"""

import re
import threading
from wsgiref.simple_server import make_server

import pytest

flask = pytest.importorskip("flask")

from repro.core.proxy import FunctionProxy
from repro.obs import (
    IdGenerator,
    OriginInstrumentation,
    ProxyInstrumentation,
    SpanTracer,
)
from repro.obs.decisions import DECISION_CAPACITY
from repro.server.origin import OriginServer
from repro.webapp.http_origin import HttpOriginClient
from repro.webapp.origin_app import create_origin_app
from repro.webapp.proxy_app import create_proxy_app

RADIAL = "/search/Radial?ra=164&dec=8&radius=10"
SMALLER = "/search/Radial?ra=164&dec=8&radius=4"
SHIFTED = "/search/Radial?ra=166&dec=9&radius=5"

HEX_TRACE_ID = re.compile(r"^[0-9a-f]{32}$")


@pytest.fixture()
def traced_proxy(origin):
    return FunctionProxy(
        origin,
        origin.templates,
        instrumentation=ProxyInstrumentation(tracer=SpanTracer()),
    )


@pytest.fixture()
def proxy_client(traced_proxy):
    return create_proxy_app(traced_proxy).test_client()


class TestExplainEndpoint:
    def test_explain_names_action_and_candidates(self, proxy_client):
        proxy_client.get(RADIAL)
        proxy_client.get(SMALLER)
        payload = proxy_client.get("/explain/2").get_json()
        assert payload["query_id"] == 2
        assert payload["template_id"] == "skyserver.radial"
        assert payload["action"] == "contained"
        assert payload["action_code"] == "DA02"
        assert payload["status"] == "contained"
        assert payload["outcome"] == "served"
        # Every candidate carries a region-relationship verdict with
        # the compared bounds.
        assert payload["candidates"]
        for candidate in payload["candidates"]:
            assert candidate["relation"]
            assert "shape" in candidate["entry_region"]
        assert payload["query_region"]["shape"] == "hypersphere"
        assert payload["scheme"] == "ac-full"

    def test_miss_decision(self, proxy_client):
        proxy_client.get(RADIAL)
        payload = proxy_client.get("/explain/1").get_json()
        assert payload["action"] == "miss"
        assert payload["action_code"] == "DA05"
        assert payload["admitted"] is True

    def test_explain_links_trace_id(self, proxy_client):
        proxy_client.get(RADIAL)
        explain = proxy_client.get("/explain/1").get_json()
        assert HEX_TRACE_ID.match(explain["trace_id"])
        spans = proxy_client.get("/trace/recent").get_json()["spans"]
        assert explain["trace_id"] in {s["trace_id"] for s in spans}

    def test_explain_recent(self, proxy_client):
        proxy_client.get(RADIAL)
        proxy_client.get(RADIAL)
        proxy_client.get(SHIFTED)
        payload = proxy_client.get("/explain/recent").get_json()
        assert payload["capacity"] == DECISION_CAPACITY
        assert payload["actions"]["exact"] == 1
        assert [d["query_id"] for d in payload["decisions"]] == [1, 2, 3]
        limited = proxy_client.get("/explain/recent?n=1").get_json()
        assert [d["query_id"] for d in limited["decisions"]] == [3]

    def test_unknown_query_is_404(self, proxy_client):
        response = proxy_client.get("/explain/999")
        assert response.status_code == 404
        payload = response.get_json()
        assert "error" in payload
        assert payload["retained"] == 0

    def test_trace_capacity_kwarg(self, origin):
        proxy = FunctionProxy(
            origin,
            origin.templates,
            instrumentation=ProxyInstrumentation(
                tracer=SpanTracer(capacity=1)
            ),
        )
        client = create_proxy_app(proxy).test_client()
        for _ in range(3):
            client.get(RADIAL)
        payload = client.get("/trace/recent?n=10").get_json()
        assert payload["enabled"] is True
        assert len(payload["spans"]) == 1


class TestExemplars:
    def test_check_wall_buckets_reference_valid_trace_ids(
        self, proxy_client
    ):
        proxy_client.get(RADIAL)
        proxy_client.get(SMALLER)
        text = proxy_client.get("/metrics?exemplars=1").get_data(
            as_text=True
        )
        exemplar_ids = re.findall(r'# \{trace_id="([0-9a-f]{32})"\}', text)
        assert exemplar_ids
        assert any(
            line.startswith("proxy_check_wall_ms_bucket")
            and "trace_id=" in line
            for line in text.splitlines()
        )
        spans = proxy_client.get("/trace/recent").get_json()["spans"]
        span_trace_ids = {s["trace_id"] for s in spans}
        for trace_id in exemplar_ids:
            assert trace_id in span_trace_ids

    def test_exemplars_absent_by_default(self, proxy_client):
        proxy_client.get(RADIAL)
        text = proxy_client.get("/metrics").get_data(as_text=True)
        assert "trace_id=" not in text


class TestStitchedTrace:
    @pytest.fixture(scope="class")
    def live_origin(self, origin):
        # A traced origin over the session's catalog and templates;
        # the shared origin itself stays untraced.
        traced = OriginServer(
            origin.catalog,
            origin.templates,
            instrumentation=OriginInstrumentation(
                tracer=SpanTracer(capacity=64)
            ),
        )
        app = create_origin_app(traced)
        server = make_server("127.0.0.1", 0, app)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        yield f"http://127.0.0.1:{server.server_port}", traced
        server.shutdown()

    def test_one_query_one_trace_across_both_sides(self, live_origin):
        url, origin = live_origin
        client = HttpOriginClient(url)
        proxy = FunctionProxy(
            client,
            client.templates,
            instrumentation=ProxyInstrumentation(
                tracer=SpanTracer(ids=IdGenerator(seed=11))
            ),
        )
        proxy_app = create_proxy_app(proxy).test_client()

        response = proxy_app.get(RADIAL)
        assert response.status_code == 200

        proxy_spans = proxy_app.get("/trace/recent").get_json()["spans"]
        origin_spans = origin.instrumentation.tracer.recent(10)
        assert proxy_spans and origin_spans
        proxy_ids = {s["trace_id"] for s in proxy_spans}
        origin_ids = {s["trace_id"] for s in origin_spans}
        shared = proxy_ids & origin_ids
        assert shared, (proxy_ids, origin_ids)

        # The explain record links the same trace.
        explain = proxy_app.get("/explain/1").get_json()
        assert explain["trace_id"] in shared

    def test_malformed_traceparent_degrades_to_fresh_trace(
        self, live_origin
    ):
        url, origin = live_origin
        origin_app = create_origin_app(origin).test_client()
        before = {
            s["trace_id"]
            for s in origin.instrumentation.tracer.recent(100)
        }
        response = origin_app.get(
            RADIAL, headers={"traceparent": "zz-not-a-real-header"}
        )
        assert response.status_code == 200
        new = [
            s
            for s in origin.instrumentation.tracer.recent(100)
            if s["trace_id"] not in before
        ]
        assert new  # executed under a fresh local trace, not an error
