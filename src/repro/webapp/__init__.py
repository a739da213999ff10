"""HTTP deployment: Flask apps for the origin site and the proxy.

Everything in :mod:`repro.core` and :mod:`repro.server` is
transport-agnostic; this package provides the thin HTTP skins that make
the paper's deployment picture literal — a browser talking HTTP to a
proxy servlet that talks HTTP to the origin web site:

* :func:`~repro.webapp.origin_app.create_origin_app` — the web site:
  ``GET /search/<form>`` (the HTML search forms), ``POST /query`` (a
  bound template query as template id and parameters — how the proxy
  forwards) and ``POST /sql`` (the free-form SQL page the proxy uses
  for remainder queries);
* :func:`~repro.webapp.proxy_app.create_proxy_app` — the proxy
  servlet: the same ``/search/<form>`` surface, answered from the
  cache when possible, plus ``/stats`` for the timing records;
* :func:`~repro.webapp.router_app.create_router_app` — the sharded
  tier's front door: ``/search/<form>`` routed over the consistent-
  hash ring, plus ``/shards``, ``/health``, ``/decisions``, and
  ``POST /drain/<shard_id>``;
* :mod:`~repro.webapp.surface` — what the three apps share: the
  telemetry routes (``/metrics``, ``/timeseries``, ``/events``, and
  ``/trace/recent`` / ``/profile`` where a tracer and profiler exist)
  and the outcome → HTTP response mapping of ``/search``;
* :class:`~repro.webapp.http_origin.HttpOriginClient` — an
  origin-server adapter that forwards over HTTP (bound queries and
  remainders to ``/query``, free SQL to ``/sql``), so a
  :class:`~repro.core.proxy.FunctionProxy` can front a *remote* origin
  process exactly as the paper's Tomcat servlet fronted the SkyServer.

The telemetry routes serve the recorders the instrumentation was
built with; an app adds none.  A proxy with live telemetry::

    instrumentation = ProxyInstrumentation(
        tracer=SpanTracer(capacity=64),
        profiler=Profiler(top_k=10),
        timeseries=TimeSeriesRecorder(interval_ms=1_000.0),
        events=EventRecorder(capacity=64),
    )
    proxy = FunctionProxy(
        origin, origin.templates, instrumentation=instrumentation
    )
    app = create_proxy_app(proxy)

and a traced origin, over an existing one's catalog and templates::

    origin = OriginServer(
        base.catalog,
        base.templates,
        instrumentation=OriginInstrumentation(tracer=SpanTracer(capacity=64)),
    )
    app = create_origin_app(origin)

Flask is an optional dependency; importing this package without Flask
installed raises a clear error only when an app is actually created.
"""

from repro.webapp.origin_app import create_origin_app
from repro.webapp.proxy_app import create_proxy_app
from repro.webapp.router_app import create_router_app
from repro.webapp.http_origin import HttpOriginClient

__all__ = [
    "HttpOriginClient",
    "create_origin_app",
    "create_proxy_app",
    "create_router_app",
]
