"""The function proxy as a Flask application.

The HTTP face of :class:`~repro.core.proxy.FunctionProxy`:

``GET /search/<form_name>?field=value&...``
    Same surface as the origin's search forms; answered from the cache
    when the caching scheme allows, forwarded otherwise.  The response
    carries ``X-Proxy-Ms`` (simulated proxy-side time),
    ``X-Cache-Status`` (the paper's four-way disposition),
    ``X-Proxy-Outcome``, and ``X-Proxy-Retries``.  The status code
    follows the outcome: ``200`` for full answers (fresh or degraded
    stale-serves), ``206`` for the cached portion of an overlap query
    whose remainder could not reach the origin, ``503`` when the
    origin was needed but unreachable, and ``400`` when the origin
    rejected the query itself.  Under overload, admission control
    answers ``429`` for a shed query (``X-Proxy-Outcome: shed``) and
    ``503`` for one that timed out in the accept queue
    (``queued-timeout``), both carrying a ``Retry-After`` header
    derived from the overload breaker's cooldown; the ``X-Tenant``
    request header selects the per-tenant quota bucket.

``GET /stats``
    Aggregate trace statistics: average response time, average cache
    efficiency, status fractions, cache occupancy, and the p50/p95/max
    real wall clock of the cache-description check (the paper's
    "always under 100 milliseconds" claim).

``GET /metrics``
    The proxy's metrics registry in Prometheus text format: query
    status counters, per-step latency histograms, cache occupancy
    gauges, origin/network byte counters.

``GET /profile?format=json|text&sort=cum|self|wall|calls``
    The hot-path profiler's aggregate: per-stage call counts,
    cumulative/self time on both clocks, operator counters, and the
    top-K slowest queries — as JSON (default) or a ``pprof``-style
    flat text table.  Reports ``enabled: false`` under the default
    no-op profiler.

``GET /trace/recent?n=20``
    The most recent finished query spans as JSON (empty unless the
    proxy was built with an enabled tracer).  Spans carry W3C trace /
    span ids; for queries that touched the origin over HTTP, the
    origin app's ``/trace/recent`` reports the same trace id.

``GET /explain/<query_id>`` / ``GET /explain/recent?n=20``
    The cache-decision explain layer: for one query (by its 1-based
    index) or the latest N, the full reasoning record — the chosen
    action with its stable ``DAxx`` code, every candidate entry
    examined with its region-relationship verdict and compared bounds,
    remainder-query geometry, evictions with the replacement policy's
    victim rationale, and the linked trace id.

``GET /analyze``
    The static-cacheability diagnostics registration recorded (codes,
    severities, source spans, hints), refused templates included, as
    JSON — the same report logged once at startup.

``POST /cache/clear``
    Drops every cached entry (for experiment hygiene between runs).

``GET /persistence``
    The crash-consistent persistence sidecar's status: journal size and
    record counts, snapshot age, the installed crash plan, and the last
    warm-restart :class:`~repro.persistence.recovery.RecoveryReport`
    (``enabled: false`` when the proxy runs without a persister).

``POST /faults`` / ``GET /faults`` / ``DELETE /faults``
    Install a seeded :class:`~repro.faults.plan.FaultPlan` (JSON body,
    the ``FaultPlan.to_dict`` shape) against the live proxy, inspect
    the installed plan plus the circuit breaker's state, or remove it.
    A malformed plan, or one with version bumps for an origin that
    cannot bump, is a 400.

``GET /admission``
    The admission controller's live status: configured limits and shed
    policy, queue depth and inflight count, submitted/admitted/shed/
    timeout counters by reason, per-tenant quota denials and token
    levels, and the overload breaker's state (``enabled: false`` when
    the proxy runs without admission control).

``GET /timeseries`` / ``GET /events`` / ``GET /health``
    The live-telemetry surface: the fixed-interval time series sampled
    on the proxy's simulated clock (rate/gauge/quantile lanes), the
    flight recorder's pinned-code event buffer (``?n=`` limits to the
    newest N), and the declarative health verdict
    (``healthy``/``degraded``/``unhealthy`` — the last answers 503).
    All report ``enabled: false`` under the default no-op recorders.
"""

from __future__ import annotations

from repro.analysis.diagnostics import AnalysisReport
from repro.core.proxy import FunctionProxy
from repro.faults.errors import FaultPlanError
from repro.faults.plan import FaultPlan
from repro.webapp.surface import (
    QUERY_ERRORS,
    add_telemetry_routes,
    flask_app,
    search_response,
)


def create_proxy_app(proxy: FunctionProxy):
    """Build the Flask app for a function proxy.

    The telemetry routes serve the recorders the proxy's
    :class:`~repro.obs.instrument.ProxyInstrumentation` was built with
    (``tracer``, ``profiler``, ``timeseries``, ``events``).
    """
    app, request = flask_app("repro-proxy")

    # Startup report: what registration found in the templates the
    # proxy booted with, so a template problem is visible in the log
    # before the first query hits it.
    startup = AnalysisReport(proxy.templates.analysis_diagnostics())
    app.logger.info("template analysis at startup: %s", startup.summary())
    for diagnostic in startup:
        app.logger.warning("%s", diagnostic.format())

    @app.get("/search/<form_name>")
    def search(form_name: str):
        tenant = request.headers.get("X-Tenant", "default")
        try:
            response = proxy.serve_form(
                form_name, request.args, tenant=tenant
            )
        except QUERY_ERRORS as exc:
            # Proxy-side binding/parsing problems; origin-side query
            # errors surface as a structured ``failed`` outcome below.
            return {"error": str(exc)}, 400
        return search_response(response, proxy.admission)

    @app.get("/stats")
    def stats():
        trace_stats = proxy.stats
        return {
            "queries": len(trace_stats),
            "average_response_ms": trace_stats.average_response_ms,
            "average_cache_efficiency": (
                trace_stats.average_cache_efficiency
            ),
            "hit_ratio": trace_stats.hit_ratio,
            "answered_fraction": trace_stats.answered_fraction,
            "total_retries": trace_stats.total_retries,
            "outcome_fractions": {
                outcome.value: fraction
                for outcome, fraction in (
                    trace_stats.outcome_fractions().items()
                )
            },
            "status_fractions": {
                status.value: fraction
                for status, fraction in (
                    trace_stats.status_fractions().items()
                )
            },
            "cache_bytes": proxy.cache.current_bytes,
            "cache_entries": len(proxy.cache),
            "scheme": proxy.scheme.value,
            "check_wall_ms": trace_stats.check_wall_summary(),
        }

    add_telemetry_routes(app, proxy.obs)

    @app.get("/explain/recent")
    def explain_recent():
        limit = request.args.get("n", default=20, type=int)
        return {
            "capacity": proxy.obs.decisions.capacity,
            "actions": proxy.obs.decisions.action_counts(),
            "decisions": proxy.obs.decisions.recent(limit),
        }

    @app.get("/explain/<int:query_id>")
    def explain(query_id: int):
        trace = proxy.obs.decisions.get(query_id)
        if trace is None:
            return {
                "error": f"no retained decision for query {query_id}",
                "retained": len(proxy.obs.decisions),
            }, 404
        return trace.to_dict()

    @app.get("/analyze")
    def analyze():
        return AnalysisReport(
            proxy.templates.analysis_diagnostics()
        ).to_dict()

    @app.post("/cache/clear")
    def clear():
        return {"removed": proxy.cache.clear()}

    @app.get("/persistence")
    def persistence():
        persister = proxy.persistence
        if persister is None:
            return {
                "enabled": False,
                "reason": "proxy was built without a persister",
            }
        payload = persister.status()
        payload["enabled"] = True
        payload["recovery"] = (
            proxy.recovery_report.to_dict()
            if proxy.recovery_report is not None
            else None
        )
        return payload

    @app.post("/faults")
    def install_faults():
        payload = request.get_json(silent=True)
        if not isinstance(payload, dict):
            return {"error": "expected a JSON fault-plan object"}, 400
        try:
            plan = FaultPlan.from_dict(payload)
            proxy.install_fault_plan(plan)
        except FaultPlanError as exc:
            return {"error": str(exc)}, 400
        return {"installed": True, "plan": plan.to_dict()}

    @app.get("/faults")
    def faults():
        plan = proxy.fault_plan
        return {
            "installed": plan is not None,
            "plan": plan.to_dict() if plan is not None else None,
            "breaker": proxy.breaker.state.value,
            "breaker_opens": proxy.breaker.opens,
            "clock_ms": proxy.clock.now_ms,
        }

    @app.delete("/faults")
    def remove_faults():
        was_installed = proxy.fault_plan is not None
        proxy.install_fault_plan(None)
        return {"installed": False, "removed": was_installed}

    @app.get("/admission")
    def admission():
        controller = proxy.admission
        if controller is None:
            return {
                "enabled": False,
                "reason": "proxy was built without an admission "
                "controller",
            }
        payload = controller.snapshot()
        payload["enabled"] = True
        return payload

    @app.get("/health")
    def health():
        report = proxy.obs.health()
        status_code = 503 if report["status"] == "unhealthy" else 200
        return report, status_code

    return app
