"""The origin web site as a Flask application.

Routes:

``GET /search/<form_name>?field=value&...``
    The HTML search forms (Radial, Rectangular).  Parameters are the
    raw form fields; the response is the result table as XML.

``POST /query`` (body: ``{"template_id": ..., "params": {...}}``,
and for a remainder ``"holes": [...]``)
    A bound template query — how a proxy forwards, tunnels or asks for
    the remainder of one.  The site binds it with its own compiled
    templates and runs the template's plan: as a form submission
    (``origin.form``), or without the rows inside the holes, each in
    :func:`~repro.geometry.regions.region_to_dict`'s form
    (``origin.remainder``, charged the remainder price).  No SQL is
    rendered or parsed.  JSON keeps ints, floats and strings apart,
    and a float arrives bit for bit.  A body that is not such an
    object, a parameter value that is not a number or a string, or a
    hole that is not a sphere, box or polytope of the template's
    dimensions is a 400.

``POST /sql`` (body: the SQL text)
    The free-form SQL facility.  (The paper used the SkyServer's
    public SQL page for remainder queries too; here they go to
    ``/query``.)

``GET /templates``
    The site's registered templates, for proxy bootstrap: query
    template SQL, function template XML, info file XML, and the
    current data version.

``GET /metrics`` / ``GET /trace/recent`` / ``GET /profile``
    The origin's observability surface: request counters and cost
    histograms by kind in Prometheus text format, recent execution
    spans (when the origin's tracer is enabled), and the execution
    profiler's per-kind aggregate (JSON, or ``?format=text`` for the
    flat table; ``enabled: false`` under the default no-op profiler).

Trace propagation: ``/search``, ``/query`` and ``/sql`` share one
handler, which honors an incoming W3C ``traceparent`` header — the
origin's execution spans join the caller's trace (the proxy injects
the header on every fetch), so both sides' ``/trace/recent`` report
the same trace id for one query.  A malformed header degrades to a
fresh local trace, never an error.

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
from repro.geometry.regions import Region, region_from_dict
from repro.network.clock import SimulatedClock
from repro.obs.propagation import parse_traceparent
from repro.obs.timeseries import ORIGIN_LANES
from repro.server.origin import OriginServer
from repro.templates.errors import TemplateError
from repro.webapp.surface import (
    QUERY_ERRORS,
    add_telemetry_routes,
    flask_app,
    install_recorders,
)


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
    app, request = flask_app("repro-origin")
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

    startup = analyze_manager(origin.templates, origin.catalog.functions)
    app.logger.info("template analysis at startup: %s", startup.summary())
    for diagnostic in startup:
        app.logger.warning("%s", diagnostic.format())

    def answer(execute):
        """A query route's response: ``execute()`` joins the caller's
        trace, what the site refuses is a 400, an answer is XML."""
        caller = parse_traceparent(request.headers.get("traceparent"))
        try:
            with origin.instrumentation.remote_context(caller):
                response = execute()
        except QUERY_ERRORS as exc:
            return {"error": str(exc)}, 400
        served_clock.advance(response.server_ms)
        origin.instrumentation.sample_telemetry(served_clock.now_ms)
        headers = {
            "Content-Type": "application/xml",
            "X-Server-Ms": f"{response.server_ms:.3f}",
            "X-Data-Version": str(origin.data_version),
        }
        return response.result.to_xml(), 200, headers

    @app.get("/search/<form_name>")
    def search(form_name: str):
        return answer(lambda: origin.execute_form(form_name, request.args))

    @app.post("/query")
    def query():
        body = request.get_json(force=True, silent=True)
        if not _is_bound_query(body):
            return {
                "error": 'the body must be {"template_id": string, '
                '"params": {name: number or string}}'
            }, 400

        def bind():
            return origin.templates.bind(body["template_id"], body["params"])

        if "holes" not in body:
            return answer(lambda: origin.execute_bound(bind()))
        return answer(
            lambda: origin.execute_remainder(bind(), _holes(body["holes"]))
        )

    @app.post("/sql")
    def sql():
        return answer(
            lambda: origin.execute_sql(request.get_data(as_text=True))
        )

    @app.get("/templates")
    def templates():
        manager = origin.templates
        query_templates = map(
            manager.query_template, manager.query_template_ids()
        )
        return {
            "query_templates": [
                {
                    "template_id": template.template_id,
                    "sql": template.sql,
                    "key_column": template.key_column,
                    "function_template": template.function_template.to_xml(),
                    "description": template.description,
                }
                for template in query_templates
            ],
            "info_files": [info.to_xml() for info in manager.info_files()],
            "data_version": origin.data_version,
        }

    add_telemetry_routes(app, origin.instrumentation)

    @app.get("/analyze")
    def analyze():
        report = analyze_manager(origin.templates, origin.catalog.functions)
        return report.to_dict()

    @app.get("/health")
    def health():
        report = origin.instrumentation.health(served_clock.now_ms)
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


def _is_bound_query(body) -> bool:
    """True iff ``body`` is ``{"template_id": str, "params": {str:
    number or string}}`` — ``true``, ``null``, lists and objects are no
    parameter values (``True`` would bind as 1)."""
    return (
        isinstance(body, dict)
        and isinstance(body.get("template_id"), str)
        and isinstance(body.get("params"), dict)
        and all(type(v) in (int, float, str) for v in body["params"].values())
    )


def _holes(payload) -> list[Region]:
    """A remainder's holes from their JSON form; one that does not
    decode is a :class:`TemplateError` (a 400 like any refused query).
    Whether they suit the template is the origin's to check."""
    if not isinstance(payload, list):
        raise TemplateError(f"holes must be a list of regions: {payload!r}")
    try:
        return [region_from_dict(hole) for hole in payload]
    except ValueError as exc:  # a GeometryError, or a number that is none
        raise TemplateError(f"malformed remainder hole: {exc}") from None
