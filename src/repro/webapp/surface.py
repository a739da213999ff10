"""What the proxy, origin, and router apps share.

Five things used to be written once per app and had drifted:

* :func:`flask_app` — the app itself, behind the one import of the
  optional Flask dependency;
* :data:`QUERY_ERRORS` — the errors a query route answers with a 400;
* :func:`install_recorders` — the recorder swap behind the
  ``trace_capacity`` / ``profile_top_k`` / ``timeseries_interval_ms`` /
  ``event_capacity`` factory arguments;
* :func:`add_telemetry_routes` — ``/metrics``, ``/timeseries`` and
  ``/events`` on every app, plus ``/trace/recent`` and ``/profile``
  where the telemetry source has a tracer and a profiler;
* :func:`search_response` — the one mapping from a served query's
  outcome to its HTTP status code, headers, and body.

Flask is imported inside the functions: importing this module without
Flask installed stays harmless.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.admission.config import retry_after_seconds
from repro.core.stats import QueryOutcome
from repro.obs.events import EventRecorder, newest
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.obs.profiling import Profiler
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import PROXY_LANES, LaneSet, TimeSeriesRecorder
from repro.relational.errors import RelationalError
from repro.sqlparser.errors import ParseError
from repro.templates.errors import TemplateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.admission.controller import AdmissionController
    from repro.core.proxy import ProxyResponse


#: What a caller got wrong — an unknown form or template, a value the
#: binder refuses, SQL that does not parse, a query the engine or a
#: site function refuses: a 400 on every app.
QUERY_ERRORS = (TemplateError, ParseError, RelationalError)


def flask_app(name: str) -> tuple[Any, Any]:
    """A new Flask app named ``name``, and Flask's ``request``.

    Flask is an optional dependency: without it, building an app is a
    clear error, and importing this package is still harmless.
    """
    try:
        from flask import Flask, request
    except ImportError:  # pragma: no cover - optional dependency
        raise RuntimeError(
            "the HTTP deployment needs Flask; install repro[http]"
        ) from None
    return Flask(name), request


def install_recorders(
    instrumentation: Any,
    trace_capacity: int | None,
    profile_top_k: int | None,
    timeseries_interval_ms: float | None,
    event_capacity: int | None,
    lanes: LaneSet = PROXY_LANES,
) -> None:
    """Swap live recorders into ``instrumentation``; ``None`` keeps
    whatever it was built with.  Legal only during single-threaded
    wiring, before any request thread starts."""
    if trace_capacity is not None:
        instrumentation.tracer = SpanTracer(capacity=trace_capacity)
    if profile_top_k is not None:
        instrumentation.profiler = Profiler(top_k=profile_top_k)
    if timeseries_interval_ms is not None or event_capacity is not None:
        instrumentation.install_telemetry(
            timeseries=(
                TimeSeriesRecorder(
                    interval_ms=timeseries_interval_ms, lanes=lanes
                )
                if timeseries_interval_ms is not None
                else None
            ),
            events=(
                EventRecorder(capacity=event_capacity)
                if event_capacity is not None
                else None
            ),
        )


def add_telemetry_routes(app: Any, source: Any) -> None:
    """Register the telemetry endpoints over ``source``.

    ``source`` is whatever owns the recorders — a proxy's or origin's
    instrumentation bundle, or the shard router itself — read through
    its ``registry`` / ``timeseries`` / ``events`` attributes (and
    ``tracer`` / ``profiler`` when it has them) at request time, so a
    recorder rebound after the app was built is the one served.
    """
    from flask import request

    @app.get("/metrics")
    def metrics():
        with_exemplars = request.args.get("exemplars") in ("1", "true")
        return (
            source.registry.exposition(exemplars=with_exemplars),
            200,
            {"Content-Type": PROMETHEUS_CONTENT_TYPE},
        )

    @app.get("/timeseries")
    def timeseries():
        return source.timeseries.snapshot()

    @app.get("/events")
    def events():
        payload = source.events.snapshot()
        payload["events"] = newest(
            payload["events"], request.args.get("n", type=int)
        )
        return payload

    if not hasattr(source, "tracer"):
        return

    @app.get("/trace/recent")
    def trace_recent():
        limit = request.args.get("n", default=20, type=int)
        return {
            "enabled": source.tracer.enabled,
            "spans": source.tracer.recent(limit),
        }

    @app.get("/profile")
    def profile():
        fmt = request.args.get("format", "json")
        if fmt == "text":
            try:
                text = source.profiler.render_text(
                    sort=request.args.get("sort", "cum")
                )
            except ValueError as exc:
                return {"error": str(exc)}, 400
            return text, 200, {"Content-Type": "text/plain; charset=utf-8"}
        if fmt != "json":
            return {"error": f"unknown format {fmt!r}; use json or text"}, 400
        return source.profiler.snapshot()


def search_response(
    response: "ProxyResponse",
    admission: "AdmissionController | None",
    extra_headers: Mapping[str, str] | None = None,
    overload_body: Mapping[str, Any] | None = None,
):
    """One served query as a Flask ``(body, status, headers)`` triple.

    ``200`` for full answers (fresh or degraded stale-serves), ``206``
    for the cached portion of an overlap whose remainder could not
    reach the origin, ``503`` when the origin was needed but
    unreachable, ``400`` when the origin rejected the query itself.
    Admission's turn-aways answer ``429`` (shed: back off and retry)
    or ``503`` (the queue deadline passed before a serve slot freed
    up), with a ``Retry-After`` derived from ``admission``'s overload
    cooldown; ``overload_body`` overrides or extends that error body.
    """
    record = response.record
    headers = {
        "X-Proxy-Ms": f"{record.response_ms:.3f}",
        "X-Cache-Status": record.status.value,
        "X-Cache-Efficiency": f"{record.cache_efficiency:.4f}",
        "X-Proxy-Outcome": record.outcome.value,
        "X-Proxy-Retries": str(record.retries),
        **(extra_headers or {}),
    }
    if record.outcome in (QueryOutcome.SHED, QueryOutcome.QUEUED_TIMEOUT):
        status_code = 429 if record.outcome is QueryOutcome.SHED else 503
        if admission is not None:
            headers["Retry-After"] = str(
                retry_after_seconds(admission.config)
            )
        body = {
            "error": "proxy overloaded",
            "reason": record.failure_reason,
            **(overload_body or {}),
        }
        return body, status_code, headers
    if record.outcome is QueryOutcome.FAILED:
        status_code = 400 if record.failure_reason == "query-error" else 503
        return (
            {
                "error": "origin unavailable"
                if status_code == 503
                else "origin rejected the query",
                "reason": record.failure_reason,
                "retries": record.retries,
            },
            status_code,
            headers,
        )
    status_code = 206 if record.outcome is QueryOutcome.PARTIAL else 200
    headers["Content-Type"] = "application/xml"
    return response.result.to_xml(), status_code, headers
