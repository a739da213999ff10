"""The origin web site as a Flask application.

Routes:

``GET /search/<form_name>?field=value&...``
    The HTML search forms (Radial, Rectangular).  Parameters are the
    raw form fields; the response is the result table as XML.

``POST /sql`` (body: the SQL text)
    The free-form SQL facility — the paper used the SkyServer's public
    SQL page as the remainder-query interface.  ``X-Remainder-Holes``
    may carry the excluded-region count so the simulated cost model
    can charge the remainder price.

``GET /templates``
    The site's registered templates, for proxy bootstrap: query
    template SQL, function template XML, and info file XML.

``GET /metrics`` / ``GET /trace/recent`` / ``GET /profile``
    The origin's observability surface: request counters and cost
    histograms by kind in Prometheus text format, recent execution
    spans (when the origin's tracer is enabled), and the execution
    profiler's per-kind aggregate (JSON, or ``?format=text`` for the
    flat table; ``enabled: false`` under the default no-op profiler).

Trace propagation: ``/search`` and ``/sql`` honor an incoming W3C
``traceparent`` header — the origin's execution spans join the
caller's trace (the proxy injects the header on every fetch), so both
sides' ``/trace/recent`` report the same trace id for one query.  A
malformed header degrades to a fresh local trace, never an error.

``GET /analyze``
    A fresh static-cacheability analysis of the site's registered
    templates, checked against the origin's own function catalog (so
    determinism, property 1, is verified too).

``GET /timeseries`` / ``GET /events`` / ``GET /health``
    The live-telemetry surface (origin lanes, sampled on the origin's
    cumulative simulated server time), the flight recorder's buffer,
    and the health verdict merged into the existing status fields.

Every response carries ``X-Server-Ms``: the simulated server cost the
caller should charge to its clock.
"""

from __future__ import annotations

from repro.analysis.analyzer import analyze_manager
from repro.network.clock import SimulatedClock
from repro.obs.propagation import parse_traceparent
from repro.obs.timeseries import ORIGIN_LANES
from repro.relational.errors import RelationalError
from repro.server.origin import OriginServer
from repro.sqlparser.errors import ParseError
from repro.sqlparser.parser import parse_select
from repro.templates.errors import TemplateError
from repro.webapp.surface import add_telemetry_routes, install_recorders


def create_origin_app(
    origin: OriginServer,
    trace_capacity: int | None = None,
    profile_top_k: int | None = None,
    timeseries_interval_ms: float | None = None,
    event_capacity: int | None = None,
):
    """Build the Flask app for an origin server.

    ``trace_capacity`` replaces the origin's tracer with a fresh
    :class:`~repro.obs.spans.SpanTracer` retaining that many root
    spans (harness-configurable; default: whatever tracer the origin
    was built with, usually the null tracer); ``profile_top_k``
    likewise swaps in a real profiler for ``/profile``;
    ``timeseries_interval_ms`` / ``event_capacity`` install live
    telemetry recorders (origin lanes) behind ``/timeseries`` and
    ``/events``, sampled on the origin's cumulative simulated server
    time.
    """
    try:
        from flask import Flask, request
    except ImportError:  # pragma: no cover - optional dependency
        raise RuntimeError(
            "the HTTP deployment needs Flask; install repro[http]"
        ) from None

    app = Flask("repro-origin")
    install_recorders(
        origin.instrumentation,
        trace_capacity,
        profile_top_k,
        timeseries_interval_ms,
        event_capacity,
        lanes=ORIGIN_LANES,
    )
    # The origin has no work clock of its own; its telemetry axis is
    # the cumulative simulated server time it has charged.
    served_clock = SimulatedClock()

    def incoming_context():
        return parse_traceparent(request.headers.get("traceparent"))

    startup = analyze_manager(origin.templates, origin.catalog.functions)
    app.logger.info("template analysis at startup: %s", startup.summary())
    for diagnostic in startup:
        app.logger.warning("%s", diagnostic.format())

    def xml_response(result, server_ms: float):
        served_clock.advance(server_ms)
        origin.instrumentation.sample_telemetry(served_clock.now_ms)
        return (
            result.to_xml(),
            200,
            {
                "Content-Type": "application/xml",
                "X-Server-Ms": f"{server_ms:.3f}",
                "X-Data-Version": str(origin.data_version),
            },
        )

    @app.get("/search/<form_name>")
    def search(form_name: str):
        try:
            with origin.instrumentation.remote_context(incoming_context()):
                response = origin.execute_form(form_name, request.args)
        except (TemplateError, ParseError, RelationalError) as exc:
            return {"error": str(exc)}, 400
        return xml_response(response.result, response.server_ms)

    @app.post("/sql")
    def sql():
        text = request.get_data(as_text=True)
        holes_header = request.headers.get("X-Remainder-Holes")
        try:
            with origin.instrumentation.remote_context(incoming_context()):
                if holes_header is not None:
                    statement = parse_select(text)
                    response = origin.execute_remainder(
                        statement, int(holes_header)
                    )
                else:
                    response = origin.execute_sql(text)
        except (ParseError, RelationalError, ValueError) as exc:
            return {"error": str(exc)}, 400
        return xml_response(response.result, response.server_ms)

    @app.get("/templates")
    def templates():
        manager = origin.templates
        payload = {"query_templates": [], "info_files": []}
        for template_id in manager.query_template_ids():
            template = manager.query_template(template_id)
            payload["query_templates"].append(
                {
                    "template_id": template.template_id,
                    "sql": template.sql,
                    "key_column": template.key_column,
                    "function_template": (
                        template.function_template.to_xml()
                    ),
                    "description": template.description,
                }
            )
        for info in manager.info_files():
            payload["info_files"].append(info.to_xml())
        return payload

    add_telemetry_routes(app, origin.instrumentation)

    @app.get("/analyze")
    def analyze():
        report = analyze_manager(origin.templates, origin.catalog.functions)
        return report.to_dict()

    @app.get("/health")
    def health():
        report = origin.instrumentation.health.evaluate(
            served_clock.now_ms
        )
        report.update(
            {
                "tables": [t.name for t in origin.catalog.tables()],
                "queries_served": origin.queries_served,
                "remainders_served": origin.remainders_served,
                "data_version": origin.data_version,
            }
        )
        status_code = 503 if report["status"] == "unhealthy" else 200
        return report, status_code

    return app
