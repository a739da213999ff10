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
* :mod:`repro.obs.slo` — per-template hit-ratio / latency burn-rate
  gauges on ``/metrics``;
* :mod:`repro.obs.timeseries` / :mod:`repro.obs.events` /
  :mod:`repro.obs.health` — the live time series, the flight recorder,
  and the pinned health rules judged over them;
* :mod:`repro.obs.instrument` — the proxy/origin instrumentation
  bundles threaded through :mod:`repro.core.proxy`,
  :mod:`repro.core.cache`, :mod:`repro.server.origin`, and
  :mod:`repro.network.link`, surfaced over HTTP (``GET /metrics``,
  ``GET /trace/recent``, ``GET /explain/...``, ``GET /health``) and
  snapshotted by the harness.

Everything is stdlib-only, and tracing and profiling are off by
default: the stage tree that times each query is then dropped when its
root closes.
"""

from repro.obs.events import EventRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagation import IdGenerator
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.instrument import OriginInstrumentation, ProxyInstrumentation

__all__ = [
    "EventRecorder",
    "IdGenerator",
    "MetricsRegistry",
    "OriginInstrumentation",
    "ProxyInstrumentation",
    "SpanTracer",
    "TimeSeriesRecorder",
]
