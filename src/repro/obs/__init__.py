"""Observability: spans, propagation, metrics, decisions, and hooks.

The paper's evaluation leans on internal timing visibility ("the proxy
servlet records timing information in each step of query processing")
and a real-time micro-claim (description checks "always under 100
milliseconds").  This package is the one mechanism behind all of that:

* :mod:`repro.obs.spans` — the one timed scope (``Stage``) that nests
  each query's lifecycle (parse → bind → check → relate → probe →
  remainder → origin → merge → admit) with wall-clock and simulated
  durations, and the tracer that retains finished trees (JSONL);
* :mod:`repro.obs.profiling` — the per-stage aggregate folded from
  the same trees (``GET /profile``);
* :mod:`repro.obs.propagation` — W3C ``traceparent`` trace-context
  propagation, stitching proxy- and origin-side spans into one
  end-to-end tree across the HTTP hop;
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms (with per-bucket trace-id exemplars) and Prometheus
  text-format exposition;
* :mod:`repro.obs.decisions` — the explain layer: a per-query
  :class:`~repro.obs.decisions.DecisionTrace` recording which cache
  entries were considered, each region-relationship verdict, the
  chosen action, remainder geometry, and evictions with the policy's
  rationale, served by ``GET /explain/<query_id>``;
* :mod:`repro.obs.slo` — per-template hit-ratio / latency objectives
  with burn-rate gauges on ``/metrics``;
* :mod:`repro.obs.instrument` — the proxy/origin instrumentation
  bundles threaded through :mod:`repro.core.proxy`,
  :mod:`repro.core.cache`, :mod:`repro.server.origin`, and
  :mod:`repro.network.link`, surfaced over HTTP (``GET /metrics``,
  ``GET /trace/recent``, ``GET /explain/...``) and snapshotted by the
  harness.

Everything is stdlib-only, and tracing and profiling are off by
default: the stage tree that times each query is then dropped when its
root closes.
"""

from repro.obs.decisions import (
    ACTION_CODES,
    CandidateVerdict,
    DecisionAction,
    DecisionLog,
    DecisionTrace,
    EvictionRecord,
    action_for,
    region_summary,
)
from repro.obs.events import (
    EVENT_CODES,
    NULL_EVENTS,
    EventRecorder,
    NullEventRecorder,
)
from repro.obs.health import (
    HEALTH_RULES,
    NULL_HEALTH,
    HealthMonitor,
    NullHealthMonitor,
    evaluate_samples,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.propagation import IdGenerator, TraceContext, parse_traceparent
from repro.obs.slo import SloObjective, SloTracker
from repro.obs.spans import NullTracer, ScopeStack, SpanTracer, Stage
from repro.obs.timeseries import (
    NULL_TIMESERIES,
    ORIGIN_LANES,
    PROXY_LANES,
    LaneSet,
    NullTimeSeries,
    TimeSeriesRecorder,
)
from repro.obs.instrument import (
    OriginInstrumentation,
    ProxyInstrumentation,
    QueryObservation,
)

__all__ = [
    "ACTION_CODES",
    "CandidateVerdict",
    "Counter",
    "DecisionAction",
    "DecisionLog",
    "DecisionTrace",
    "EVENT_CODES",
    "EventRecorder",
    "EvictionRecord",
    "Gauge",
    "HEALTH_RULES",
    "HealthMonitor",
    "Histogram",
    "IdGenerator",
    "LaneSet",
    "MetricError",
    "MetricsRegistry",
    "NULL_EVENTS",
    "NULL_HEALTH",
    "NULL_TIMESERIES",
    "NullEventRecorder",
    "NullHealthMonitor",
    "NullTimeSeries",
    "NullTracer",
    "ORIGIN_LANES",
    "OriginInstrumentation",
    "PROXY_LANES",
    "ProxyInstrumentation",
    "QueryObservation",
    "SloObjective",
    "SloTracker",
    "ScopeStack",
    "SpanTracer",
    "Stage",
    "TimeSeriesRecorder",
    "TraceContext",
    "action_for",
    "evaluate_samples",
    "parse_traceparent",
    "region_summary",
]
