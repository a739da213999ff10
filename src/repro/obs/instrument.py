"""Instrumentation bundles wired through the proxy and origin.

:class:`ProxyInstrumentation` owns one metrics registry and one tracer
per proxy and defines every proxy-side metric family (query-status
counters, per-step latency histograms, cache occupancy gauges, origin
byte counters, the real-wall-clock description-check histogram).  It
also implements the two hook interfaces the lower layers call:

* the cache observer (:meth:`ProxyInstrumentation.cache_event`) that
  :class:`repro.core.cache.CacheManager` notifies on insert / evict /
  remove / clear;
* the transfer recorder (:meth:`ProxyInstrumentation.record_transfer`)
  that :class:`repro.network.link.Topology` notifies per round trip.

:class:`QueryObservation` is the per-query handle that replaced the
proxy's bespoke ``steps_ms`` dict.  Every step of a query opens (or
appends) one :class:`~repro.obs.spans.Stage` on the bundle's stack;
the finished tree is what the tracer retains, what the profiler folds,
and what fills ``steps`` (feeding
:class:`repro.core.stats.QueryRecord` and ``TraceStats``) and the real
wall clock of the description check.  With the tracer and the profiler
off only the root and its phases are built — they fill ``steps`` and
time the check — and the tree is dropped when the root closes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.locking import guarded_by, named_lock, read_only, unshared
from repro.network.clock import Clock, SimulatedClock
from repro.obs.decisions import DecisionLog, DecisionTrace
from repro.obs.events import EV_HEALTH_STATE_CHANGE, NULL_EVENTS
from repro.obs.health import HEALTHY, evaluate_window
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloTracker
from repro.obs.spans import NULL_STAGE, NullStage, ScopeStack, Stage
from repro.obs.timeseries import NULL_TIMESERIES, ORIGIN_LANES, PROXY_LANES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.stats import QueryRecord

#: Buckets for simulated per-step / per-response latencies (ms).
SIM_MS_BUCKETS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: Buckets for the *real* description-check wall clock (ms) — sized
#: around the paper's "always under 100 milliseconds" claim.
CHECK_WALL_BUCKETS_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
)

#: Buckets for payload sizes (bytes).
BYTES_BUCKETS = (
    512.0, 2048.0, 8192.0, 32768.0, 131072.0, 524288.0, 2097152.0,
)


@unshared("steps", "decision", "data_version", "record")
@read_only("index", "_read")
class QueryObservation(Stage):
    """One query's lifecycle: the root ``query`` stage of its tree.

    The proxy opens one observation per query (a context manager, like
    every stage), binds the query's
    :class:`~repro.core.stats.QueryRecord` to it (``record``, whose
    ``steps_ms`` *is* this observation's ``steps``) and charges each
    processing step to it; ``check_wall_ms`` is read back when the
    record is closed.

    When built with a ``clock`` (the proxy's simulated clock), every
    simulated charge also advances it, making the observation the one
    place where per-step costs and the proxy's timeline stay in sync.

    An observation belongs to the one thread serving its query (the
    ``unshared`` registration); ``index`` — the query's position in
    the proxy's admission order — is fixed at construction, and so is
    whether the tree has a reader (``_read``: the tracer or the
    profiler is on).  Without one, charges and sub-stages build no
    stage: only the root and its phases exist.
    """

    #: The explain-layer trace the proxy fills while deciding; the
    #: proxy binds it (``DecisionLog.begin``) before any stage runs.
    decision: DecisionTrace
    #: The query's record, bound by the proxy next to ``decision``
    #: (``repro.obs`` does not import ``repro.core``).
    record: Any

    __slots__ = (
        "index", "steps", "decision", "data_version", "record", "_read"
    )

    def __init__(
        self,
        scopes: ScopeStack,
        *,
        index: int,
        template_id: str,
        clock: Any = None,
    ) -> None:
        Stage.__init__(
            self,
            scopes._opened(),
            "query",
            {"index": index, "template": template_id},
            sim_clock=clock,
        )
        self.index = index
        self._read: bool = scopes.tracer.enabled or scopes.profiler.enabled
        self.steps: dict[str, float] = {}
        #: The origin data version the query was admitted under — the
        #: proxy's admission stage re-checks it before caching (the
        #: data-version fence).
        self.data_version: Any = None

    @property
    def check_wall_ms(self) -> float:
        """Real wall-clock time of the description checks closed so
        far (the paper's "< 100 ms" claim is about real time)."""
        return sum(
            (c.wall_ms for c in self.children if c.name == "check"), 0.0
        )

    def charge(  # type: ignore[override]
        self, step: str, sim_ms: float, **attrs: Any
    ) -> None:
        """Record a purely simulated step (no interesting wall time).

        The root is charged by step name: each charge is a flat child
        of whatever stage is open, never the root's own time — when
        the tree has a reader.
        """
        self.steps[step] = self.steps.get(step, 0.0) + sim_ms
        if self._sim_clock is not None:
            self._sim_clock.advance(sim_ms)
        if self._read:
            self._open.event(step, sim_ms, attrs)

    def stage(
        self, name: str, hidden: bool = False, **attrs: Any
    ) -> Stage | NullStage:
        """A sub-stage inside a phase, with no step key of its own.

        For hot-path sections that deserve their own profile row — the
        description probe and the exact relation checks inside
        ``check`` — without widening ``steps_ms``.  ``hidden`` keeps
        it out of the trace as well.  With no reader it is the shared
        no-op stage.
        """
        if not self._read:
            return NULL_STAGE
        return Stage(self._open, name, attrs, hidden)

    def phase(self, step: str, record: bool = True, **attrs: Any) -> Stage:
        """A step that does real work: one stage, timed on the wall.

        The wall time is measured whether or not anything reads the
        tree — the description-check wall clock backs the paper's
        "< 100 ms" claim regardless of whether tracing is on.  Closing
        the stage writes its ``wall_ms`` attribute and adds its charge
        to ``steps`` — also when the body raised.  ``record=False``
        keeps the step key out of the record (auxiliary stages that
        carry no simulated charge of their own, e.g. remainder
        building): the charge goes to a dict nobody reads.
        """
        return Stage(
            self._open,
            step,
            attrs,
            False,
            self.steps if record else {},
            self._sim_clock,
        )


class _HeldChildren(dict[Any, Any]):
    """Label children by ``(family, *label values)``, each resolved
    through ``labels()`` — which validates the label set and creates
    the child, so ``/metrics`` lists exactly what was observed — the
    first time it is asked for, and kept: from then on a lookup is one
    dict get.  Unlocked: a lost race re-reads the child ``labels()``
    already holds for that key.
    """

    def __missing__(self, key: tuple[Any, ...]) -> Any:
        family, *values = key
        child = self[key] = family.labels(
            **dict(zip(family.labelnames, values))
        )
        return child


@guarded_by("proxy.telemetry", "_last_status")
@unshared("_queue_limit", "clock")
@read_only("timeseries", "events")
class TelemetryBundle(ScopeStack):
    """What the proxy's and the origin's instrumentation share: one
    registry, the stage stack with its two readers (tracer and
    profiler), the live-telemetry pair, the health verdict judged
    from them, and the ``clock`` that stamps all three.

    The recorders — ``tracer`` / ``profiler`` and the telemetry pair
    ``timeseries`` / ``events`` — are the ones the bundle is built
    with; each subclass binds the time series to its registry under
    its own lane set.  The objects behind them synchronize internally.
    ``clock`` is the one time axis of the bundle's events, samples and
    health verdicts: a proxy binds its work clock at construction and
    an event-driven frontend rebinds it to the loop during
    single-threaded wiring (hence ``unshared``); an origin's bundle
    keeps its own (the simulated server time it has charged).  The
    last verdict (EV11 fires when it changes) is guarded by the
    ``proxy.telemetry`` lock.
    """

    def __init__(
        self, tracer: Any, profiler: Any, timeseries: Any, events: Any
    ) -> None:
        super().__init__(tracer, profiler)
        self.registry = MetricsRegistry()
        self._held = _HeldChildren()
        self._lock = named_lock("proxy.telemetry")
        #: The accept queue's depth limit (HR04's yardstick), learnt
        #: when an admission controller binds.
        self._queue_limit: int | None = None
        self._last_status: str | None = None
        self.clock: Clock = SimulatedClock()
        self.timeseries: Any = (
            timeseries if timeseries is not None else NULL_TIMESERIES
        )
        self.events: Any = events if events is not None else NULL_EVENTS

    def health(self) -> dict[str, Any]:
        """The health verdict now, on the bundle's clock
        (``GET /health``).

        Every pinned rule over the windows the time series keeps
        ready (``TimeSeriesRecorder.health_window``, so the ring is
        not re-read); a change of the overall verdict fires EV11.
        With the time series off, the pinned disabled payload: always
        healthy, no rules.
        """
        now_ms = self.clock.now_ms
        if not self.timeseries.enabled:
            return {
                "enabled": False,
                "status": HEALTHY,
                "rules": [],
                "windows": 0,
                "at_ms": float(now_ms),
            }
        queue_limit = self._queue_limit
        report = evaluate_window(
            self.timeseries.health_window(), queue_limit=queue_limit
        )
        status = report["status"]
        with self._lock:
            previous = self._last_status
            self._last_status = status
        if previous != status if previous is not None else status != HEALTHY:
            self.events.emit(
                EV_HEALTH_STATE_CHANGE,
                at_ms=now_ms,
                status=status,
                previous=previous,
            )
        report["enabled"] = True
        report["at_ms"] = float(now_ms)
        if queue_limit is not None:
            report["queue_limit"] = queue_limit
        return report

    def sample_telemetry(self) -> None:
        """Serve-path hook: advance the time series to the clock's now.

        When the call lands a new sample (an interval boundary was
        crossed) the health rules are re-evaluated against the updated
        series, so verdict flips land at window granularity.  With the
        null recorder this is one no-op method call per query.
        """
        if self.timeseries.maybe_sample(self.clock.now_ms) is not None:
            self.health()


class ProxyInstrumentation(TelemetryBundle):
    """The proxy's metric families, tracer, decision log, and hooks."""

    def __init__(
        self,
        tracer: Any = None,
        profiler: Any = None,
        timeseries: Any = None,
        events: Any = None,
    ) -> None:
        super().__init__(tracer, profiler, timeseries, events)
        self.slo = SloTracker(self.registry)
        self.decisions = DecisionLog()
        r = self.registry
        self.queries = r.counter(
            "proxy_queries_total",
            "Queries served, by disposition status and template.",
            ("status", "template"),
        )
        self.step_ms = r.histogram(
            "proxy_step_sim_ms",
            "Simulated latency charged per query-processing step.",
            ("step",),
            buckets=SIM_MS_BUCKETS,
        )
        self.response_ms = r.histogram(
            "proxy_response_sim_ms",
            "Simulated proxy-side response time per query.",
            buckets=SIM_MS_BUCKETS,
        )
        self.check_wall_ms = r.histogram(
            "proxy_check_wall_ms",
            "Real wall-clock time of the cache-description check "
            "(the paper's under-100-ms claim).",
            buckets=CHECK_WALL_BUCKETS_MS,
        )
        self.cache_bytes = r.gauge(
            "proxy_cache_bytes", "Bytes of results currently cached."
        )
        self.cache_entries = r.gauge(
            "proxy_cache_entries", "Cached query results currently held."
        )
        self.cache_insertions = r.counter(
            "proxy_cache_insertions_total", "Results admitted to the cache."
        )
        self.cache_evictions = r.counter(
            "proxy_cache_evictions_total",
            "Entries evicted by the replacement policy.",
        )
        self.cache_removals = r.counter(
            "proxy_cache_removals_total",
            "Entries consolidated away by region containment.",
        )
        self.cache_invalidations = r.counter(
            "proxy_cache_invalidations_total",
            "Whole-cache flushes (origin data-version changes).",
        )
        self._cache_counters = {
            "insert": self.cache_insertions,
            "evict": self.cache_evictions,
            "remove": self.cache_removals,
            "clear": self.cache_invalidations,
        }
        self.origin_requests = r.counter(
            "proxy_origin_requests_total",
            "Queries that had to contact the origin server.",
        )
        self.origin_bytes = r.counter(
            "proxy_origin_bytes_total",
            "Result bytes shipped from the origin to the proxy.",
        )
        self.tuples_served = r.counter(
            "proxy_tuples_served_total",
            "Result tuples returned to clients, by source.",
            ("source",),
        )
        self.transfer_ms = r.histogram(
            "proxy_network_transfer_ms",
            "Simulated network round-trip time, by hop.",
            ("hop",),
            buckets=SIM_MS_BUCKETS,
        )
        self.transfer_bytes = r.counter(
            "proxy_network_bytes_total",
            "Bytes carried across the network, by hop.",
            ("hop",),
        )
        self.analysis_diagnostics = r.counter(
            "analysis_diagnostics_total",
            "Static-analysis diagnostics raised at template admission, "
            "by diagnostic code and severity.",
            ("code", "severity"),
        )
        self.origin_retries = r.counter(
            "origin_retries_total",
            "Origin attempts retried after a transient failure or "
            "timeout.",
        )
        self.breaker_state = r.gauge(
            "breaker_state",
            "Circuit breaker guarding the proxy-to-origin hop "
            "(0=closed, 1=half-open, 2=open).",
        )
        self.degraded_responses = r.counter(
            "degraded_responses_total",
            "Responses that were not full fresh answers, by outcome "
            "kind (degraded, partial, failed).",
            ("kind",),
        )
        self.origin_failures = r.counter(
            "origin_failures_total",
            "Origin requests given up on after resilience was "
            "exhausted, by terminal reason.",
            ("reason",),
        )
        self.journal_records = r.counter(
            "journal_records_total",
            "Cache-mutation records appended to (or replayed from) the "
            "persistence journal, by record type and direction.",
            ("type", "direction"),
        )
        self.recovery_entries = r.counter(
            "recovery_entries_total",
            "Cache entries processed by warm-restart recovery, by "
            "disposition (restored, stale, error, rejected).",
            ("disposition",),
        )
        self.snapshot_age = r.gauge(
            "snapshot_age_seconds",
            "Simulated seconds since the last persistence snapshot.",
        )
        self.admission_depth = r.gauge(
            "admission_queue_depth",
            "Requests currently parked in the admission accept queue.",
        )
        self.admission_sheds = r.counter(
            "admission_shed_total",
            "Queries turned away, by reason (quota, admission-open, "
            "queue-full, deadline, shard-down).",
            ("reason",),
        )
        self.admission_quota_denials = r.counter(
            "admission_quota_denials_total",
            "Queries denied by a per-tenant token-bucket quota.",
            ("tenant",),
        )
        self.admission_wait_ms = r.histogram(
            "admission_queue_wait_sim_ms",
            "Simulated time admitted queries spent in the accept queue.",
            buckets=SIM_MS_BUCKETS,
        )
        self.admission_overload = r.gauge(
            "admission_overload_state",
            "Overload circuit breaker gating admission "
            "(0=closed, 1=half-open, 2=open).",
        )
        self.admission_running = r.gauge(
            "admission_inflight",
            "Admitted queries currently holding a serve slot.",
        )
        self.admission_quota = r.gauge(
            "admission_quota_tokens",
            "Tokens currently available in each tenant's admission "
            "bucket.",
            ("tenant",),
        )
        self.timeseries.bind(r, PROXY_LANES)

    # --------------------------------------------------------- telemetry
    def telemetry_event(
        self,
        code: str,
        trace_id: str | None = None,
        query_index: int | None = None,
        **payload: Any,
    ) -> None:
        """Serve-path hook: one pinned-code flight-recorder event,
        stamped on the bundle's clock."""
        self.events.emit(
            code,
            self.clock.now_ms,
            trace_id=trace_id,
            query_index=query_index,
            **payload,
        )

    def set_admission_queue_limit(self, limit: int | None) -> None:
        """Admission wiring: the accept queue's depth limit (HR04)."""
        self._queue_limit = limit

    # ------------------------------------------------- analysis observation
    def record_diagnostic(self, diagnostic: Any) -> None:
        """Template-manager analysis hook; counts one diagnostic."""
        severity = diagnostic.severity.value
        self._held[self.analysis_diagnostics, diagnostic.code, severity].inc()

    # --------------------------------------------------- resilience hooks
    def origin_retry(self) -> None:
        """Gateway hook: one origin attempt is being retried."""
        self.origin_retries.inc()

    def origin_failure(self, reason: str) -> None:
        """Gateway hook: an origin request was given up on."""
        self._held[self.origin_failures, reason].inc()

    def breaker_transition(self, value: int) -> None:
        """Breaker hook: the state gauge's new encoded value."""
        self.breaker_state.set(value)

    # --------------------------------------------------- admission hooks
    def admission_queue_depth(self, depth: int) -> None:
        """Admission hook: the accept queue's current depth."""
        self.admission_depth.set(depth)

    def admission_inflight(self, count: int) -> None:
        """Admission hook: queries currently holding a serve slot."""
        self.admission_running.set(count)

    def admission_quota_tokens(self, tenant: str, tokens: float) -> None:
        """Admission hook: a tenant bucket's current token level."""
        self._held[self.admission_quota, tenant].set(tokens)

    def admission_quota_denied(self, tenant: str) -> None:
        """Admission hook: a tenant's token bucket denied a query."""
        self._held[self.admission_quota_denials, tenant].inc()

    def admission_queue_wait(self, sim_ms: float) -> None:
        """Admission hook: an admitted query's simulated queue wait."""
        self.admission_wait_ms.observe(sim_ms)

    def admission_overload_transition(self, state: Any) -> None:
        """Admission hook: the overload breaker's new state.

        Encoded like ``breaker_state`` (0=closed, 1=half-open,
        2=open); the mapping is by state value to avoid importing the
        resilience module here.
        """
        encoded = {"closed": 0, "half-open": 1, "open": 2}
        self.admission_overload.set(encoded.get(state.value, -1))

    # --------------------------------------------------------- per query
    def observe_query(
        self, index: int, template_id: str, clock: Any = None
    ) -> QueryObservation:
        return QueryObservation(
            self, index=index, template_id=template_id, clock=clock
        )

    def observe_record(
        self, record: "QueryRecord", trace_id: str | None = None
    ) -> None:
        """Fold one finished query record into the metric families.

        ``trace_id`` (the query's root span trace) becomes the exemplar
        on every latency-histogram bucket the record lands in, linking
        a p95 bucket to the trace that caused it.  A steady-state fold
        is dict gets and ``inc`` / ``observe``: every label child it
        needs is held after its first resolution.  The cache occupancy
        gauges are not touched here: ``cache_event`` owns them.
        """
        held = self._held
        held[
            self.queries, record.status.value, record.template_id
        ].inc()
        for step, sim_ms in record.steps_ms.items():
            held[self.step_ms, step].observe(sim_ms, trace_id=trace_id)
        self.response_ms.observe(record.response_ms, trace_id=trace_id)
        if "check" in record.steps_ms:
            self.check_wall_ms.observe(
                record.check_wall_ms, trace_id=trace_id
            )
        self.slo.observe(
            record.template_id,
            hit=record.hit,
            latency_ms=record.response_ms,
        )
        if record.contacted_origin:
            self.origin_requests.inc()
            self.origin_bytes.inc(record.origin_bytes)
        held[self.tuples_served, "cache"].inc(record.tuples_from_cache)
        held[self.tuples_served, "origin"].inc(
            record.tuples_total - record.tuples_from_cache
        )
        if record.outcome.value != "served":
            held[self.degraded_responses, record.outcome.value].inc()
            if record.status.value == "rejected":  # turned away
                held[self.admission_sheds, record.failure_reason].inc()
        if self.profiler.enabled:
            self.profiler.record_query(
                record.index,
                record.template_id,
                record.response_ms,
                status=record.status.value,
            )

    # -------------------------------------------------- persistence hooks
    def journal_append(self, record_type: str) -> None:
        """Persister hook: one record was appended to the journal."""
        self._held[self.journal_records, record_type, "append"].inc()
        if self.profiler.enabled:
            self.profiler.hit("journal.append")

    def journal_replayed(self, record_type: str) -> None:
        """Recovery hook: one journal record was replayed."""
        self._held[self.journal_records, record_type, "replay"].inc()
        if self.profiler.enabled:
            self.profiler.hit("journal.replay")

    def recovery_disposition(self, disposition: str, count: int) -> None:
        """Recovery hook: ``count`` entries ended as ``disposition``."""
        if count:
            self._held[self.recovery_entries, disposition].inc(count)

    # ------------------------------------------------- cache observation
    def cache_event(
        self, kind: str, n_bytes: int, current_bytes: int, entries: int
    ) -> None:
        """Cache-manager hook; ``kind`` is insert/evict/remove/clear,
        each counted, or ``replace`` (an identical query's entry gave
        way and its result was then refused), which only moves the
        occupancy gauges — the one place they are set."""
        counter = self._cache_counters.get(kind)
        if counter is not None:
            counter.inc()
            if self.profiler.enabled:
                self.profiler.hit(f"cache.{kind}")
        self.cache_bytes.set(current_bytes)
        self.cache_entries.set(entries)

    # ----------------------------------------------- network observation
    def record_transfer(self, hop: str, n_bytes: int, ms: float) -> None:
        """Topology hook; ``hop`` is ``origin`` or ``client``."""
        self._held[self.transfer_ms, hop].observe(ms)
        self._held[self.transfer_bytes, hop].inc(n_bytes)


class OriginInstrumentation(TelemetryBundle):
    """The origin server's metric families and tracer.

    The origin has no work clock: its bundle keeps its own, advanced
    by the simulated server cost of every request it observes.
    """

    clock: SimulatedClock

    def __init__(
        self,
        tracer: Any = None,
        profiler: Any = None,
        timeseries: Any = None,
        events: Any = None,
    ) -> None:
        super().__init__(tracer, profiler, timeseries, events)
        r = self.registry
        self.requests = r.counter(
            "origin_requests_total",
            "Requests executed, by kind (form, sql, remainder).",
            ("kind",),
        )
        self.server_ms = r.histogram(
            "origin_server_sim_ms",
            "Simulated server cost per request, by kind.",
            ("kind",),
            buckets=SIM_MS_BUCKETS,
        )
        self.result_bytes = r.histogram(
            "origin_result_bytes",
            "Serialized result size per request, by kind.",
            ("kind",),
            buckets=BYTES_BUCKETS,
        )
        self.data_version = r.gauge(
            "origin_data_version", "Current base-data version."
        )
        self.data_version.set(1)
        self.timeseries.bind(r, ORIGIN_LANES)

    def observe(self, kind: str, result_bytes: int, server_ms: float) -> None:
        self.clock.advance(server_ms)
        self._held[self.requests, kind].inc()
        self._held[self.server_ms, kind].observe(server_ms)
        self._held[self.result_bytes, kind].observe(result_bytes)
        # Calls were counted by the execution stage; here only the
        # simulated server cost (known post-execution) is charged.
        if self.profiler.enabled:
            self.profiler.add_sim(f"origin.{kind}", server_ms, calls=0)
