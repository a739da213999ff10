"""One path for a forward: a bound query crosses the wire as its template
id and parameters (``POST /query``), and the origin app binds it with
its own templates and executes it as the form submission it is."""

import json
import sys
import threading
import urllib.request
from contextlib import contextmanager
from wsgiref.simple_server import WSGIRequestHandler, make_server

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

flask = pytest.importorskip("flask")

import repro.sqlparser.parser
from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryStatus
from repro.extensions.triangle import (
    TRIANGLE_TEMPLATE_ID,
    register_triangle_search,
)
from repro.geometry.regions import region_to_dict
from repro.obs import OriginInstrumentation, ProxyInstrumentation, SpanTracer
from repro.relational.errors import RelationalError
from repro.server.origin import OriginServer
from repro.templates.errors import TemplateError
from repro.templates.manager import TemplateManager
from repro.templates.skyserver_templates import (
    NEAREST_TEMPLATE_ID,
    RADIAL_TEMPLATE_ID,
    RECT_TEMPLATE_ID,
)
from repro.webapp.http_origin import HttpOriginClient, HttpOriginError
from repro.webapp.origin_app import create_origin_app
from repro.webapp.proxy_app import create_proxy_app
from tests.conftest import SMALL_SKY
from tests.templates.test_manager import MAGS, template_params

RADIAL = {
    "ra": 164.0, "dec": 8.0, "radius": 10.0,
    "r_min": -9999.0, "r_max": 9999.0,
}


class QuietHandler(WSGIRequestHandler):
    def log_message(self, *args):
        pass


@contextmanager
def serving(app, profile=None):
    """``app`` on a loopback port; ``profile`` is installed with
    ``sys.setprofile`` in the thread that handles every request."""
    server = make_server("127.0.0.1", 0, app, handler_class=QuietHandler)

    def run():
        sys.setprofile(profile)
        server.serve_forever(0.02)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.fixture(scope="module")
def site():
    """A private origin with all four templates, the triangle too."""
    origin = OriginServer.skyserver(SMALL_SKY)
    register_triangle_search(origin.catalog.functions, origin.templates)
    return origin


@pytest.fixture(scope="module")
def app(site):
    return create_origin_app(site).test_client()


def counters(app):
    """Everything a refused request must leave alone."""
    health = app.get("/health").get_json()
    return (
        health["queries_served"],
        health["remainders_served"],
        app.get("/metrics").get_data(as_text=True),
    )


def requests_of(metrics: str, kind: str) -> float:
    for line in metrics.splitlines():
        if line.startswith(f'origin_requests_total{{kind="{kind}"}}'):
            return float(line.split()[-1])
    return 0.0


#: Any JSON document, nested a little.
json_documents = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
#: Bodies shaped like a bound query, so some reach the binder.
bound_shaped = st.fixed_dictionaries(
    {
        "template_id": st.one_of(
            st.sampled_from(["skyserver.radial", "SkyServer.Rect"]),
            json_documents,
        ),
        "params": st.one_of(
            st.dictionaries(
                st.sampled_from(
                    ["ra", "dec", "radius", "r_min", "r_max", "ra_min",
                     "ra_max", "dec_min", "dec_max"]
                ),
                st.one_of(
                    st.integers(-200, 400),
                    st.floats(-200.0, 400.0),
                    json_documents,
                ),
            ),
            json_documents,
        ),
    }
)


#: A hole the template's points are in: the sky around (164, 8).
HOLE = {"shape": "hypersphere",
        "center": [-0.9519, 0.2730, 0.1392], "radius": 0.002}


class TestRemainderHoles:
    @pytest.mark.parametrize(
        "holes",
        [
            "two",
            -1,
            None,
            {"shape": "hypersphere", "center": [0, 0, 1], "radius": 1},
            [],
            [-100],
            [{"shape": "nope"}],
            [{"shape": "hypersphere", "center": [0, 0], "radius": 1}],
            [{"shape": "hypersphere", "center": ["a", 0, 1], "radius": 1}],
            [{"shape": "hypersphere", "center": [0, 0, 1], "radius": -1}],
            [{"shape": "hyperrect", "lows": [0, 0, 0]}],
            [{"shape": "difference", "base": HOLE, "holes": [HOLE]}],
        ],
        ids=[
            "string", "number", "null", "object", "empty", "not-a-region",
            "unknown-shape", "wrong-dimensions", "non-numeric",
            "negative-radius", "missing-bound", "difference",
        ],
    )
    def test_a_malformed_hole_is_400_and_moves_nothing(
        self, app, holes
    ):
        before = counters(app)
        response = app.post(
            "/query",
            json={
                "template_id": RADIAL_TEMPLATE_ID,
                "params": RADIAL,
                "holes": holes,
            },
        )
        assert response.status_code == 400
        assert "hole" in response.get_json()["error"]
        assert counters(app) == before

    def test_a_remainder_is_the_query_minus_its_holes(self, site, app):
        bound = site.templates.bind(RADIAL_TEMPLATE_ID, RADIAL)
        hole = site.templates.bind(
            RADIAL_TEMPLATE_ID, dict(RADIAL, radius=4.0)
        ).region
        response = app.post(
            "/query",
            json={
                "template_id": RADIAL_TEMPLATE_ID,
                "params": RADIAL,
                "holes": [region_to_dict(hole)],
            },
        )
        assert response.status_code == 200
        expected = site.execute_remainder(bound, [hole]).result
        assert response.get_data() == expected.to_bytes()
        assert 0 < len(expected) < len(site.execute_bound(bound).result)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @example(holes=[HOLE])
    @given(holes=st.one_of(json_documents, st.lists(json_documents)))
    def test_any_holes_are_answered_or_refused(self, app, holes):
        before = counters(app)
        response = app.post(
            "/query",
            data=json.dumps(
                {
                    "template_id": RADIAL_TEMPLATE_ID,
                    "params": RADIAL,
                    "holes": holes,
                }
            ),
        )
        assert response.status_code in (200, 400)
        if response.status_code == 400:
            assert counters(app) == before


class TestQueryRoute:
    def test_a_bound_query_is_a_form_execution(self, site, app):
        before = requests_of(app.get("/metrics").get_data(as_text=True),
                             "form")
        response = app.post(
            "/query",
            json={"template_id": RADIAL_TEMPLATE_ID, "params": RADIAL},
        )
        assert response.status_code == 200
        expected = site.execute_bound(
            site.templates.bind(RADIAL_TEMPLATE_ID, RADIAL)
        )
        assert response.get_data() == expected.result.to_bytes()
        metrics = app.get("/metrics").get_data(as_text=True)
        # This request and the in-process oracle above.
        assert requests_of(metrics, "form") == before + 2

    @pytest.mark.parametrize(
        "value", [True, False, None, [164.0], {"deg": 164.0}]
    )
    def test_a_parameter_that_is_no_number_or_string_is_400(
        self, app, value
    ):
        before = counters(app)
        response = app.post(
            "/query",
            json={
                "template_id": RADIAL_TEMPLATE_ID,
                "params": dict(RADIAL, r_min=value),
            },
        )
        assert response.status_code == 400
        assert counters(app) == before

    @pytest.mark.parametrize(
        "body",
        [
            b"",
            b"{not json",
            b"[]",
            b'"skyserver.radial"',
            b'{"params": {}}',
            b'{"template_id": 7, "params": {}}',
            b'{"template_id": "skyserver.radial", "params": [1, 2]}',
            b'{"template_id": "skyserver.radial"}',
        ],
    )
    def test_a_body_that_is_no_bound_query_is_400(self, app, body):
        before = counters(app)
        response = app.post("/query", data=body)
        assert response.status_code == 400
        assert "error" in response.get_json()
        assert counters(app) == before

    @settings(max_examples=150, deadline=None, derandomize=True)
    @example(body={"template_id": RADIAL_TEMPLATE_ID, "params": RADIAL})
    @example(body={"template_id": RADIAL_TEMPLATE_ID,
                   "params": dict(RADIAL, r_max=float("inf"))})
    @example(body={"template_id": RADIAL_TEMPLATE_ID,
                   "params": dict(RADIAL, ra=10**400)})
    @example(body={"template_id": "nope", "params": {}})
    @given(body=st.one_of(json_documents, bound_shaped))
    def test_any_json_body_is_answered_or_refused(self, app, body):
        before = counters(app)
        response = app.post("/query", data=json.dumps(body))
        assert response.status_code in (200, 400)
        if response.status_code == 400:
            assert counters(app) == before


class TestWireParity:
    """Through a live origin app, ``HttpOriginClient.execute_bound``
    answers what the origin answers in process, charged the same, and
    the origin counts it as a form."""

    @pytest.fixture(scope="class")
    def client(self, site):
        with serving(create_origin_app(site)) as url:
            yield HttpOriginClient(url)

    @settings(max_examples=60, deadline=None, derandomize=True)
    # The drawn centres mostly miss the small sky; these hit it.
    @example(case=(RADIAL_TEMPLATE_ID, dict(RADIAL, ra=164, dec=8)))
    @example(case=(NEAREST_TEMPLATE_ID, dict(RADIAL, ra=163.5, radius=3)))
    @example(
        case=(
            RECT_TEMPLATE_ID,
            {"ra_min": 163, "ra_max": 164.5, "dec_min": 7, "dec_max": 7.5,
             "r_min": -5, "r_max": 30.25},
        )
    )
    @example(
        case=(
            TRIANGLE_TEMPLATE_ID,
            {"ra1": 163, "dec1": 7, "ra2": 165.0, "dec2": 7,
             "ra3": 164, "dec3": 8.5, **MAGS},
        )
    )
    @given(case=template_params())
    def test_the_wire_answers_what_the_origin_answers(
        self, site, client, case
    ):
        template_id, params = case
        try:
            expected = site.execute_bound(
                site.templates.bind(template_id, params)
            )
        except (TemplateError, RelationalError):
            with pytest.raises((TemplateError, HttpOriginError)):
                client.execute_bound(
                    client.templates.bind(template_id, params)
                )
            return
        forms = requests_of(site.instrumentation.registry.exposition(), "form")
        response = client.execute_bound(
            client.templates.bind(template_id, params)
        )
        assert response.result == expected.result
        assert response.server_ms == expected.server_ms
        assert requests_of(
            site.instrumentation.registry.exposition(), "form"
        ) == forms + 1


class TestStitchedTrace:
    def test_a_forward_is_a_form_and_a_remainder_a_remainder(self, site):
        # Own instrumentation (tracer, counters) over the shared data.
        origin = OriginServer(
            site.catalog,
            site.templates,
            instrumentation=OriginInstrumentation(
                tracer=SpanTracer(capacity=16)
            ),
        )
        parser = repro.sqlparser.parser.__file__
        parser_calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == parser:
                parser_calls.append(frame.f_code.co_name)

        app = create_origin_app(origin)
        with serving(app, profile) as url:
            client = HttpOriginClient(url)
            obs = ProxyInstrumentation(tracer=SpanTracer())
            proxy = FunctionProxy(
                client, client.templates, instrumentation=obs
            )
            parser_calls.clear()
            forward = proxy.serve(
                client.templates.bind(RADIAL_TEMPLATE_ID, RADIAL)
            )
            forward_parser_calls = list(parser_calls)
            overlap = proxy.serve(
                client.templates.bind(
                    RADIAL_TEMPLATE_ID, dict(RADIAL, ra=164.1)
                )
            )
            with urllib.request.urlopen(f"{url}/trace/recent?n=8") as r:
                origin_spans = json.loads(r.read())["spans"]
            with urllib.request.urlopen(f"{url}/metrics") as r:
                metrics = r.read().decode("utf-8")
        assert forward.record.status is QueryStatus.DISJOINT
        assert overlap.record.status is QueryStatus.OVERLAP
        assert forward_parser_calls == []
        assert [span["name"] for span in origin_spans] == [
            "origin.form", "origin.remainder",
        ]
        form, remainder = origin_spans
        assert form["attrs"]["template"] == RADIAL_TEMPLATE_ID
        proxy_traces = [span["trace_id"] for span in obs.tracer.recent(8)]
        assert [form["trace_id"], remainder["trace_id"]] == proxy_traces
        assert requests_of(metrics, "form") == 1
        assert requests_of(metrics, "sql") == 0
        assert requests_of(metrics, "remainder") == 1


def _stages(span):
    """``span`` and every stage under it."""
    yield span
    for child in span.get("children", ()):
        yield from _stages(child)


class TestProxyAppToOriginApp:
    """The whole chain over loopback: a remainder crosses the wire as
    the bound query and its holes, so no SQL is rendered or parsed on
    either side, and the origin's stage still joins the proxy's
    trace under its ``origin`` phase."""

    def test_remainders_travel_without_sql(self, site):
        origin = OriginServer(
            site.catalog,
            site.templates,
            instrumentation=OriginInstrumentation(
                tracer=SpanTracer(capacity=16)
            ),
        )
        parser = repro.sqlparser.parser.__file__
        parser_calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == parser:
                parser_calls.append(frame.f_code.co_name)

        origin_app = create_origin_app(origin)
        with serving(origin_app, profile) as origin_url:
            client = HttpOriginClient(origin_url)
            obs = ProxyInstrumentation(tracer=SpanTracer())
            proxy = FunctionProxy(client, client.templates,
                                  instrumentation=obs)
            with serving(create_proxy_app(proxy), profile) as proxy_url:
                parser_calls.clear()
                statuses = []
                for query in (
                    "ra=164&dec=8&radius=10",
                    "ra=164.1&dec=8&radius=10",  # overlap
                    "ra=164.1&dec=8&radius=25",  # region containment
                ):
                    with urllib.request.urlopen(
                        f"{proxy_url}/search/Radial?{query}"
                    ) as response:
                        statuses.append(response.headers["X-Cache-Status"])
            with urllib.request.urlopen(f"{origin_url}/metrics") as r:
                metrics = r.read().decode("utf-8")
            with urllib.request.urlopen(f"{origin_url}/trace/recent?n=8") as r:
                origin_spans = json.loads(r.read())["spans"]
        assert statuses == ["disjoint", "overlap", "region-containment"]
        assert parser_calls == []
        assert requests_of(metrics, "sql") == 0
        assert requests_of(metrics, "remainder") == 2
        assert requests_of(metrics, "form") == 1
        assert [span["name"] for span in origin_spans] == [
            "origin.form", "origin.remainder", "origin.remainder",
        ]
        by_trace = {span["trace_id"]: span for span in obs.tracer.recent(8)}
        for remainder in origin_spans[1:]:
            [phase] = [
                stage for stage in _stages(by_trace[remainder["trace_id"]])
                if stage.get("span_id") == remainder["parent_id"]
            ]
            assert phase["name"] == "origin"
            assert phase["attrs"]["kind"] == "remainder"


class TestBootstrap:
    def test_one_request_brings_templates_and_data_version(self, site, app):
        payload = app.get("/templates").get_json()
        assert payload["data_version"] == site.data_version

    def test_a_template_the_client_cannot_register_fails_construction(
        self, site, monkeypatch
    ):
        """Only a function template already registered under its name
        is skipped; any other registration error surfaces."""
        real = TemplateManager.register_function_template

        def refusing(self, template):
            if template.name == "fGetObjFromTriangle":
                raise TemplateError("refused for the test")
            return real(self, template)

        monkeypatch.setattr(
            TemplateManager, "register_function_template", refusing
        )
        with serving(create_origin_app(site)) as url:
            with pytest.raises(TemplateError, match="refused for the test"):
                HttpOriginClient(url)

    def test_a_template_document_the_loader_refuses_fails_construction(
        self, app
    ):
        """The client reads ``/templates`` through the same reader the
        linter does: a bad document is a ``TemplateError`` naming the
        linter's code, not a bare ``ValueError`` from ``int()``."""
        payload = app.get("/templates").get_json()
        for entry in payload["query_templates"]:
            entry["function_template"] = entry["function_template"].replace(
                "<NumDimensions>3<", "<NumDimensions>three<"
            )
        body = json.dumps(payload).encode("utf-8")

        def stub(environ, start_response):
            start_response("200 OK", [("Content-Type", "application/json")])
            return [body]

        with serving(stub) as url:
            with pytest.raises(TemplateError, match=r"\[FP104\].*'three'"):
                HttpOriginClient(url)
