"""The shard router as a Flask application.

The HTTP face of :class:`~repro.cluster.router.ShardRouter` — what the
tier's load balancer would expose:

``GET /search/<form_name>?field=value&...``
    The proxy search surface, routed: the query is bound, hashed onto
    the ring, and dispatched to its shard (or the origin tunnel when
    no shard can take it).  Responses carry the single-proxy headers
    plus ``X-Shard`` (the dispatched shard, or ``-`` for a tunnel or
    shed) and ``X-Shard-Rerouted`` (``1`` when failover moved the
    query off its primary).  Turned-away queries answer ``429`` (shed)
    or ``503`` (queued-timeout) with a ``Retry-After`` derived from
    the dispatched shard's admission cooldown — the router propagates
    the shard's backpressure rather than inventing its own.

``GET /shards``
    The tier topology and live status: per-shard dispatch verdicts,
    cache occupancy and query counts, the ring configuration, the
    failover/handoff policy, completed handoffs, and drained shards.

``GET /health``
    The aggregate tier verdict (the per-proxy rules plus HR06
    ``shard-down``); ``unhealthy`` answers 503.

``GET /decisions?n=20``
    The newest N routing decisions — the determinism artifact: ring
    key, primary, per-shard attempt fates, and where the query landed.

``POST /drain/<shard_id>``
    Administratively retire a shard, warm-handing its live cache to
    the first live ring successor; answers the handoff report, or
    ``409`` when the shard was already drained.

``GET /metrics`` / ``GET /timeseries`` / ``GET /events?n=``
    The tier's own telemetry, on the routes (and from the code) the
    proxy and origin apps use: the ``router_*`` metric families, the
    ``ROUTER_LANES`` time series, and the flight recorder's EV12–EV14.
"""

from __future__ import annotations

from repro.cluster import ShardRouter
from repro.webapp.surface import (
    QUERY_ERRORS,
    add_telemetry_routes,
    flask_app,
    search_response,
)


def create_router_app(router: ShardRouter):
    """Build the Flask app fronting a shard router."""
    app, request = flask_app("repro-router")
    # All shards share one template manager (the runner binds them to
    # one origin), so any shard can bind the form for routing.
    templates = router.shard(router.shard_ids[0]).proxy.templates

    @app.get("/search/<form_name>")
    def search(form_name: str):
        tenant = request.headers.get("X-Tenant", "default")
        try:
            bound = templates.bind_form(form_name, request.args)
        except QUERY_ERRORS as exc:
            return {"error": str(exc)}, 400
        response, decision = router.serve_routed(bound, tenant=tenant)
        # A turned-away query reports (and takes its Retry-After from)
        # the shard that shed it — the primary when nothing dispatched.
        shard_id = decision.dispatched or decision.primary
        return search_response(
            response,
            router.shard(shard_id).proxy.admission,
            extra_headers={
                "X-Shard": decision.dispatched or "-",
                "X-Shard-Rerouted": "1" if decision.rerouted else "0",
            },
            overload_body={
                "error": "shard tier overloaded",
                "shard": shard_id,
            },
        )

    add_telemetry_routes(app, router)

    @app.get("/shards")
    def shards():
        return router.status()

    @app.get("/health")
    def health():
        report = router.health()
        status_code = 503 if report["status"] == "unhealthy" else 200
        return report, status_code

    @app.get("/decisions")
    def decisions():
        limit = request.args.get("n", default=20, type=int)
        return {
            "decisions": [
                decision.to_dict()
                for decision in router.recent_decisions(limit)
            ],
        }

    @app.post("/drain/<shard_id>")
    def drain(shard_id: str):
        try:
            report = router.drain(shard_id)
        except ValueError as exc:
            return {"error": str(exc)}, 404
        if report is None:
            return {"error": f"shard {shard_id!r} already drained"}, 409
        return {"drained": shard_id, "handoff": report.to_dict()}

    return app
