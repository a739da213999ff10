"""HTTP deployment: origin app, proxy app, and the HTTP origin client."""

import socket
import threading
from collections import Counter
from wsgiref.simple_server import WSGIRequestHandler, make_server

import pytest

flask = pytest.importorskip("flask")

from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryOutcome, QueryStatus
from repro.faults.resilience import BreakerState
from repro.relational.result import ResultTable
from repro.webapp.http_origin import HttpOriginClient, HttpOriginError
from repro.webapp.origin_app import create_origin_app
from repro.webapp.proxy_app import create_proxy_app


class QuietHandler(WSGIRequestHandler):
    def log_message(self, *args):
        pass


#: Searches the site's functions refuse (400) or can only serve by
#: walking the whole index (200) — each used to be a 500, or a minute
#: of CPU spent visiting empty grid cells.
OUT_OF_RANGE_SEARCHES = [
    ("/search/Rectangular?min_ra=10&max_ra=5&min_dec=1&max_dec=2", 400),
    ("/search/Radial?ra=152.5&dec=25.7&radius=4800", 200),
    ("/search/Radial?ra=152.5&dec=25.7&radius=21600", 400),
]


@pytest.fixture(scope="module")
def origin_client(origin):
    return create_origin_app(origin).test_client()


@pytest.fixture()
def proxy_client(origin):
    proxy = FunctionProxy(origin, origin.templates)
    return create_proxy_app(proxy).test_client()


class TestOriginApp:
    def test_search_form_returns_xml(self, origin_client):
        response = origin_client.get(
            "/search/Radial?ra=164&dec=8&radius=10"
        )
        assert response.status_code == 200
        assert "X-Server-Ms" in response.headers
        result = ResultTable.from_xml(response.get_data(as_text=True))
        assert "objID" in result.column_names

    def test_unknown_form_is_400(self, origin_client):
        response = origin_client.get("/search/NoSuchForm?x=1")
        assert response.status_code == 400
        assert "error" in response.get_json()

    def test_missing_field_is_400(self, origin_client):
        response = origin_client.get("/search/Radial?ra=164")
        assert response.status_code == 400

    def test_free_sql(self, origin_client):
        response = origin_client.post(
            "/sql",
            data="SELECT TOP 3 objID, ra, dec FROM PhotoPrimary",
        )
        assert response.status_code == 200
        result = ResultTable.from_xml(response.get_data(as_text=True))
        assert len(result) == 3

    def test_bad_sql_is_400(self, origin_client):
        response = origin_client.post("/sql", data="DROP TABLE x")
        assert response.status_code == 400

    @pytest.mark.parametrize("ra", ["1e400", "1e400 - 1e400"])
    def test_non_finite_function_argument_is_400(self, origin_client, ra):
        """``1e400`` parses to infinity (their difference to NaN), which
        used to crash the grid index as an unhandled OverflowError."""
        response = origin_client.post(
            "/sql",
            data=f"SELECT n.objID FROM fGetNearbyObjEq({ra}, 0, 1) n",
        )
        assert response.status_code == 400
        assert "non-finite argument" in response.get_json()["error"]

    @pytest.mark.parametrize(
        "item", ["exp(1000.0)", "power(10.0, 400.0)", "floor(1e400)"]
    )
    def test_math_overflow_is_400(self, origin_client, item):
        """An ``OverflowError`` from a builtin used to escape the
        executor as a 500."""
        response = origin_client.post(
            "/sql", data=f"SELECT TOP 1 {item} AS x FROM PhotoPrimary"
        )
        assert response.status_code == 400
        assert response.get_json()["error"].startswith("error in ")

    @pytest.mark.parametrize(
        "source",
        [
            "fGetNearbyObjEq(1, 1, -1)",
            "fGetObjFromRect(10, 5, 1, 2)",
            "fGetNearbyObjEq(1, 1)",
            "fNoSuch(1)",
        ],
    )
    def test_what_a_function_rejects_is_400(self, origin_client, source):
        response = origin_client.post(
            "/sql", data=f"SELECT n.objID FROM {source} n"
        )
        assert response.status_code == 400
        assert response.get_json()["error"]

    @pytest.mark.parametrize("url, status", OUT_OF_RANGE_SEARCHES)
    def test_out_of_range_search_is_answered_at_once(
        self, origin_client, url, status
    ):
        assert origin_client.get(url).status_code == status
        ok = origin_client.get("/search/Radial?ra=164&dec=8&radius=10")
        assert ok.status_code == 200

    def test_non_finite_form_field_is_400(self, origin_client):
        response = origin_client.get("/search/Radial?ra=nan&dec=1&radius=1")
        assert response.status_code == 400

    def test_free_sql_supports_aggregates(self, origin_client):
        response = origin_client.post(
            "/sql",
            data="SELECT type, COUNT(*) AS n FROM PhotoPrimary "
            "GROUP BY type ORDER BY type",
        )
        assert response.status_code == 200
        result = ResultTable.from_xml(response.get_data(as_text=True))
        assert result.column_names == ("type", "n")
        assert sum(row[1] for row in result.rows) > 0

    def test_remainder_holes_charge_surcharge(self, origin_client):
        query = {
            "template_id": "skyserver.radial",
            "params": {"ra": 164.0, "dec": 8.0, "radius": 10.0,
                       "r_min": -9999.0, "r_max": 9999.0},
        }
        hole = {"shape": "hypersphere", "center": [0.0, 0.0, 1.0],
                "radius": 0.001}
        plain = origin_client.post("/query", json=query)
        remainder = origin_client.post(
            "/query", json=dict(query, holes=[hole, hole])
        )
        assert plain.status_code == remainder.status_code == 200
        assert float(remainder.headers["X-Server-Ms"]) > float(
            plain.headers["X-Server-Ms"]
        )

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(*) FROM PhotoPrimary p",
            "SELECT MAX(p.r) FROM PhotoPrimary p",
            "SELECT TOP 2 p.r * 2.0 FROM PhotoPrimary p",
        ],
    )
    def test_an_unaliased_computed_item_gets_a_positional_name(
        self, origin_client, sql
    ):
        response = origin_client.post("/sql", data=sql)
        assert response.status_code == 200
        result = ResultTable.from_xml(response.get_data(as_text=True))
        assert result.column_names == ("column1",)
        aliased = origin_client.post(
            "/sql", data=sql.replace(" FROM", " AS x FROM")
        )
        assert aliased.status_code == 200
        named = ResultTable.from_xml(aliased.get_data(as_text=True))
        assert named.column_names == ("x",)
        assert named.rows == result.rows

    def test_a_generated_name_can_still_be_a_duplicate(self, origin_client):
        response = origin_client.post(
            "/sql",
            data="SELECT p.r AS column2, p.r + 1 FROM PhotoPrimary p",
        )
        assert response.status_code == 400
        assert "duplicate" in response.get_json()["error"]

    def test_templates_endpoint(self, origin_client):
        payload = origin_client.get("/templates").get_json()
        ids = {t["template_id"] for t in payload["query_templates"]}
        assert "skyserver.radial" in ids
        assert payload["info_files"]

    def test_health(self, origin_client):
        payload = origin_client.get("/health").get_json()
        assert "PhotoPrimary" in payload["tables"]
        assert payload["data_version"] == 1

    def test_responses_carry_data_version(self, origin_client):
        response = origin_client.get(
            "/search/Radial?ra=164&dec=8&radius=5"
        )
        assert response.headers["X-Data-Version"] == "1"


class TestProxyApp:
    def test_cache_status_header_progression(self, proxy_client):
        first = proxy_client.get("/search/Radial?ra=164&dec=8&radius=10")
        second = proxy_client.get("/search/Radial?ra=164&dec=8&radius=10")
        assert first.headers["X-Cache-Status"] == (
            QueryStatus.DISJOINT.value
        )
        assert second.headers["X-Cache-Status"] == QueryStatus.EXACT.value
        assert float(second.headers["X-Cache-Efficiency"]) == 1.0

    def test_stats_endpoint(self, proxy_client):
        proxy_client.get("/search/Radial?ra=164&dec=8&radius=10")
        payload = proxy_client.get("/stats").get_json()
        assert payload["queries"] == 1
        assert payload["scheme"] == "ac-full"

    def test_cache_clear(self, proxy_client):
        proxy_client.get("/search/Radial?ra=164&dec=8&radius=10")
        cleared = proxy_client.post("/cache/clear").get_json()
        assert cleared["removed"] == 1
        payload = proxy_client.get("/stats").get_json()
        assert payload["cache_entries"] == 0

    def test_bad_form_is_400(self, proxy_client):
        assert proxy_client.get("/search/Nope?x=1").status_code == 400

    @pytest.mark.parametrize(
        "url",
        [
            "/search/Radial?ra=nan&dec=1&radius=1",
            "/search/Radial?ra=164&dec=8&radius=nan",
            "/search/Rectangular?min_ra=163&max_ra=inf&min_dec=7&max_dec=9",
            "/search/Rectangular?min_ra=-1e400&max_ra=9&min_dec=7&max_dec=9",
            # Not a region parameter: its SQL read ``inf`` as a column.
            "/search/Radial?ra=164&dec=8&radius=10&max_mag=inf",
        ],
    )
    def test_non_finite_region_is_400_not_a_crash(self, proxy_client, url):
        """``float("nan")`` parses, ``cos(nan)`` does not raise and NaN
        passes every bound check: the region is refused at bind."""
        response = proxy_client.get(url)
        assert response.status_code == 400
        assert "finite" in response.get_json()["error"]
        # Refused before a query existed: nothing recorded, and the
        # proxy serves the next request as if nothing happened.
        assert proxy_client.get("/stats").get_json()["queries"] == 0
        ok = proxy_client.get("/search/Radial?ra=164&dec=8&radius=10")
        assert ok.status_code == 200
        assert proxy_client.get("/stats").get_json()["queries"] == 1


    @pytest.mark.parametrize("url, status", OUT_OF_RANGE_SEARCHES)
    def test_out_of_range_search_is_answered_at_once(
        self, proxy_client, url, status
    ):
        response = proxy_client.get(url)
        assert response.status_code == status
        stats = proxy_client.get("/stats").get_json()
        if "radius=21600" in url:
            # The template cannot describe it: refused at binding,
            # before the proxy counts a query.
            assert "$radius=21600" in response.get_json()["error"]
            assert stats["queries"] == 0
        elif status == 400:
            assert response.headers["X-Proxy-Outcome"] == "failed"
            assert response.get_json()["reason"] == "query-error"
        if status == 400:
            assert stats["cache_entries"] == 0
        ok = proxy_client.get("/search/Radial?ra=164&dec=8&radius=10")
        assert ok.status_code == 200


class TestHttpOriginClient:
    @pytest.fixture(scope="class")
    def live_origin_url(self, origin):
        server = make_server("127.0.0.1", 0, create_origin_app(origin))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{server.server_port}"
        server.shutdown()

    def test_bootstrap_and_query(self, live_origin_url, origin,
                                 radial_params):
        client = HttpOriginClient(live_origin_url)
        assert set(client.templates.query_template_ids()) == set(
            origin.templates.query_template_ids()
        )
        bound = client.templates.bind("skyserver.radial", radial_params)
        response = client.execute_bound(bound)
        expected = origin.execute_bound(
            origin.templates.bind("skyserver.radial", radial_params)
        ).result
        assert response.result == expected
        assert response.server_ms > 0

    def test_proxy_over_http_answers_containment(
        self, live_origin_url, radial_params
    ):
        client = HttpOriginClient(live_origin_url)
        proxy = FunctionProxy(client, client.templates)
        big = client.templates.bind("skyserver.radial", radial_params)
        proxy.serve(big)
        small = client.templates.bind(
            "skyserver.radial", dict(radial_params, radius=4.0)
        )
        response = proxy.serve(small)
        assert response.record.status is QueryStatus.CONTAINED

    def test_contained_answer_carries_the_origins_distances(
        self, live_origin_url, origin
    ):
        """``<Output>`` survives the ``/templates`` hop: a proxy that
        knows the origin only through its template XML recomputes
        ``n.distance`` for a contained query's own centre, so the
        proxy app's answer is the origin app's, cell for cell."""
        client = HttpOriginClient(live_origin_url)
        function = client.templates.function_template("fGetNearbyObjEq")
        assert [column for column, _ in function.outputs] == ["distance"]
        proxy_app = create_proxy_app(
            FunctionProxy(client, client.templates)
        ).test_client()
        origin_app = create_origin_app(origin).test_client()

        def rows(app, path):
            response = app.get(path)
            assert response.status_code == 200
            table = ResultTable.from_xml(response.get_data(as_text=True))
            return response, Counter(table.rows)

        proxy_app.get("/search/Radial?ra=164&dec=8&radius=20")
        inner = "/search/Radial?ra=164.1&dec=8.05&radius=6"
        response, got = rows(proxy_app, inner)
        assert response.headers["X-Cache-Status"] == "contained"
        _, want = rows(origin_app, inner)
        assert len(want) > 5
        assert got == want

    def test_rejected_sql_raises(self, live_origin_url):
        client = HttpOriginClient(live_origin_url)
        from repro.sqlparser.parser import parse_select

        with pytest.raises(HttpOriginError):
            client.execute_statement(
                parse_select("SELECT x FROM NoSuchTable")
            )

    def test_client_tracks_data_version(self, live_origin_url, origin,
                                        radial_params):
        client = HttpOriginClient(live_origin_url)
        assert client.data_version == origin.data_version
        origin.bump_data_version()
        try:
            bound = client.templates.bind(
                "skyserver.radial", radial_params
            )
            client.execute_bound(bound)
            assert client.data_version == origin.data_version
        finally:
            # Keep the shared session origin's version stable for
            # other tests (proxies snapshot it at construction).
            origin.data_version = 1


class TestHttpOriginFailures:
    """A real origin failing over a real socket takes the path injected
    faults take: retries, breaker, a structured record — never a 500."""

    @pytest.fixture()
    def deployment(self, origin):
        """(stop_origin, client, proxy, proxy_app) around a live
        loopback origin that the test may shut down."""
        server = make_server(
            "127.0.0.1",
            0,
            create_origin_app(origin),
            handler_class=QuietHandler,
        )
        thread = threading.Thread(
            target=server.serve_forever, args=(0.02,), daemon=True
        )
        thread.start()

        def stop_origin():
            if thread.is_alive():
                server.shutdown()
                server.server_close()  # the port now refuses connections
                thread.join()

        client = HttpOriginClient(
            f"http://127.0.0.1:{server.server_port}", timeout_s=0.3
        )
        proxy = FunctionProxy(client, client.templates)
        yield stop_origin, client, proxy, create_proxy_app(proxy).test_client()
        stop_origin()

    def test_origin_down_is_a_structured_failure(
        self, deployment, radial_params
    ):
        stop_origin, client, proxy, _app = deployment
        stop_origin()
        bound = client.templates.bind("skyserver.radial", radial_params)
        record = proxy.serve(bound).record  # must not raise
        assert record.status is QueryStatus.FAILED
        assert record.outcome is QueryOutcome.FAILED
        assert record.failure_reason == "unreachable"
        assert record.retries == proxy.resilience.retry.max_attempts - 1
        assert record.contacted_origin

    def test_cache_keeps_answering_through_a_real_outage(self, deployment):
        stop_origin, _client, proxy, app = deployment
        warm = app.get("/search/Radial?ra=164&dec=8&radius=10")
        assert warm.status_code == 200
        stop_origin()
        # Cached answers are served while the breaker is still closed...
        exact = app.get("/search/Radial?ra=164&dec=8&radius=10")
        assert exact.status_code == 200
        assert exact.headers["X-Proxy-Outcome"] == "served"
        # ...uncached ones fail as 503s until the breaker opens...
        for ra in (150, 151, 152):
            missed = app.get(f"/search/Radial?ra={ra}&dec=8&radius=1")
            assert missed.status_code == 503
            assert missed.headers["X-Proxy-Outcome"] == "failed"
        assert missed.get_json()["reason"] == "breaker-open"
        assert proxy.breaker.state is BreakerState.OPEN
        # ...after which cache hits are marked degraded, still 200.
        exact = app.get("/search/Radial?ra=164&dec=8&radius=10")
        contained = app.get("/search/Radial?ra=164&dec=8&radius=4")
        for response in (exact, contained):
            assert response.status_code == 200
            assert response.headers["X-Proxy-Outcome"] == "degraded"
        assert contained.headers["X-Cache-Status"] == "contained"

    def test_origin_that_never_answers_is_a_timeout(
        self, deployment, radial_params
    ):
        _stop, client, proxy, _app = deployment
        # Accepts connections (the kernel's backlog does) and says nothing.
        with socket.socket() as black_hole:
            black_hole.bind(("127.0.0.1", 0))
            black_hole.listen(8)
            client.base_url = f"http://127.0.0.1:{black_hole.getsockname()[1]}"
            bound = client.templates.bind("skyserver.radial", radial_params)
            record = proxy.serve(bound).record
        assert record.outcome is QueryOutcome.FAILED
        assert record.failure_reason == "timeout"
        assert record.retries == proxy.resilience.retry.max_attempts - 1
        # Each hung attempt was charged the per-attempt timeout.
        assert record.steps_ms["origin"] == pytest.approx(
            proxy.resilience.retry.attempt_timeout_ms
            * proxy.resilience.retry.max_attempts
        )

    def test_origin_4xx_is_a_query_error_not_an_outage(self, deployment):
        _stop, _client, proxy, app = deployment
        # Binds at the proxy; the origin's function refuses the bounds.
        response = app.get(
            "/search/Rectangular?min_ra=10&max_ra=5&min_dec=1&max_dec=2"
        )
        assert response.status_code == 400
        assert response.headers["X-Proxy-Outcome"] == "failed"
        assert response.get_json()["reason"] == "query-error"
        assert response.headers["X-Proxy-Retries"] == "0"
        assert proxy.breaker.state is BreakerState.CLOSED
        assert len(proxy.cache) == 0
        assert app.get(
            "/search/Radial?ra=164&dec=8&radius=10"
        ).status_code == 200

    def test_origin_5xx_is_retried_as_unreachable(
        self, deployment, radial_params
    ):
        _stop, client, proxy, _app = deployment

        def broken(environ, start_response):
            start_response(
                "500 Internal Server Error", [("Content-Type", "text/plain")]
            )
            return [b"boom"]

        server = make_server(
            "127.0.0.1", 0, broken, handler_class=QuietHandler
        )
        thread = threading.Thread(
            target=server.serve_forever, args=(0.02,), daemon=True
        )
        thread.start()
        try:
            client.base_url = f"http://127.0.0.1:{server.server_port}"
            bound = client.templates.bind("skyserver.radial", radial_params)
            record = proxy.serve(bound).record
        finally:
            server.shutdown()
            server.server_close()
        assert record.outcome is QueryOutcome.FAILED
        assert record.failure_reason == "unreachable"
        assert record.retries == proxy.resilience.retry.max_attempts - 1
