"""The function proxy servlet.

Implements the query-processing logic of Section 3.2.  Given a new
query, the proxy classifies it against the cache into one of the four
statuses and acts accordingly:

(a) **exact match** — read the cached result and return it;
(b) **contained** — evaluate the new query locally over the subsuming
    entry's result; do not cache (the result is already covered);
(c) **overlap** — serve the cached portion via a probe over the
    overlapping entries, send a *remainder query* to the origin, merge,
    return, and cache the merged full-region result.  In the special
    case of *region containment* (the new region contains cached
    regions) the subsumed entries are removed after their results are
    merged into the new entry — consolidation that "reduces the number
    of cached queries and improves cache utilization";
(d) **disjoint** — forward the query, cache the result, return it.

Which of (b)/(c) the proxy attempts is the caching scheme's policy
(:mod:`repro.core.schemes`); unhandled cases degrade to (d)'s
forwarding, minus the redundant caching of a result that a cached
superset already covers.

Soundness guards beyond the paper's text:

* only entries with the *same residual-predicate signature* participate
  in containment/overlap reasoning (two queries whose non-spatial
  predicates differ are spatially incomparable);
* entries whose producing query was TOP-N truncated serve exact matches
  only;
* queries on templates whose embedded function is non-deterministic are
  tunneled, never cached (paper property 1);
* queries on templates the static analyzer admitted *degraded* (the
  template manager's permissive mode) are likewise tunneled, never
  cached — a property violation means cached answers could be wrong.

Observability: every query runs under a
:class:`~repro.obs.instrument.QueryObservation` — the one mechanism
that times each step ("the proxy servlet records timing information
in each step of query processing").  Each step is one stage of the
query's stage tree; the simulated per-step charges (the ``steps_ms``
of the query's :class:`~repro.core.stats.QueryRecord`), the trace
and the profile are all read from that tree, and with the default
instrumentation (tracer and profiler off) it is dropped when the query
ends.

Resilience: the proxy never talks to the origin directly — every hop
goes through an :class:`~repro.faults.resilience.OriginGateway`
(retry with capped deterministic backoff, circuit breaker over the
simulated clock).  When the origin stays unreachable, the degradation
policy decides per cache case: exact/contained answers are served
from cache marked ``degraded``, overlap queries fall back to the
cached portion only (``partial``), and queries the cache cannot help
with produce a structured ``failed`` outcome instead of an exception.
A :class:`~repro.faults.plan.FaultPlan` can be installed (also at
runtime, via ``POST /faults``) to put the origin and the WAN link
through scheduled outages, slowdowns, transient failures and
data-version bumps: the gateway draws each attempt's fate, and the
transfer charges read the slowdown at the instant they are made.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Mapping, NamedTuple

from repro.admission.controller import AdmissionController
from repro.core.cache import CacheEntry, CacheManager, MaintenanceReport
from repro.core.costs import ProxyCostModel
from repro.core.description import ArrayDescription, CacheDescription
from repro.core.evaluation import LocalEvaluator
from repro.core.remainder import build_remainder
from repro.core.schemes import CachingScheme
from repro.core.stats import (
    QueryOutcome,
    QueryRecord,
    QueryStatus,
    TraceStats,
)
from repro.core.store import ResultStoreError
from repro.faults.errors import (
    FaultPlanError,
    OriginQueryError,
    OriginUnavailable,
)
from repro.faults.plan import FaultPlan
from repro.faults.resilience import (
    BREAKER_STATE_VALUES,
    BreakerState,
    CircuitBreaker,
    OriginGateway,
    ResilienceConfig,
)
from repro.geometry.relations import RegionRelation, relate
from repro.locking import guarded_by, named_lock
from repro.network.clock import SimulatedClock
from repro.network.link import Topology
from repro.obs.events import (
    BREAKER_EVENT_CODES,
    EV_DATA_VERSION_FLUSH,
    EV_EVICTION_STORM,
    EV_RECOVERY_COMPLETED,
    EVICTION_STORM_THRESHOLD,
)
from repro.obs.instrument import ProxyInstrumentation, QueryObservation
from repro.persistence.persister import CachePersister
from repro.persistence.recovery import RecoveryReport, recover_cache
from repro.relational.result import ResultTable
from repro.relational.schema import Schema
from repro.server.origin import OriginServer
from repro.templates.manager import BoundQuery, TemplateManager


@dataclass(frozen=True)
class ProxyResponse:
    """What the proxy hands back to the browser (emulator)."""

    result: ResultTable
    record: QueryRecord

    @property
    def proxy_ms(self) -> float:
        return self.record.response_ms


class Answer(NamedTuple):
    """What a cache case decided.  Everything else a record holds is
    written where it happens (the fetch) or read when it is closed."""

    result: ResultTable
    status: QueryStatus
    tuples_from_cache: int
    outcome: QueryOutcome = QueryOutcome.SERVED
    failure_reason: str = ""

    @classmethod
    def empty(
        cls, status: QueryStatus, outcome: QueryOutcome, reason: str
    ) -> "Answer":
        """No rows: the query failed or was turned away."""
        return cls(ResultTable.empty(Schema.of()), status, 0, outcome, reason)


@guarded_by(
    "proxy.state",
    "fault_plan",
    "_query_index",
    "_seen_data_version",
    "invalidations",
)
class FunctionProxy:
    """A template-based caching proxy for function-embedded queries.

    ``serve`` runs as a sequence of explicitly named, reentrant stages
    — ``_begin_query`` (admission), ``_stage_parse_bind``,
    ``_stage_cache_probe``, ``_stage_local_eval``, ``_origin_fetch``,
    ``_stage_merge``, ``_stage_admit``, ``_respond`` — each owning its
    step charge, so concurrent serves interleave at stage boundaries.
    The proxy's own mutable state (the query counter, the data-version
    fence, and the installed fault plan) is guarded by the outermost
    ``proxy.state`` named lock; everything else a stage touches
    synchronizes in the component that owns it (cache, templates,
    decision log, persister).

    Each query has one :class:`~repro.core.stats.QueryRecord`, created
    with the query (``_open_record``) and bound to its observation.
    ``_origin_fetch`` writes what it fetched onto it, each cache case
    returns the :class:`Answer` it decided, and ``_respond`` closes
    the record and hands it — once — to the decision log, the metrics
    fold, the time-series sample and ``stats``.
    """

    def __init__(
        self,
        origin: OriginServer,
        templates: TemplateManager,
        scheme: CachingScheme = CachingScheme.FULL_SEMANTIC,
        description: CacheDescription | None = None,
        cache_bytes: int | None = None,
        costs: ProxyCostModel | None = None,
        topology: Topology | None = None,
        max_holes: int = 16,
        result_store=None,
        replacement_policy=None,
        instrumentation: ProxyInstrumentation | None = None,
        resilience: ResilienceConfig | None = None,
        fault_plan: FaultPlan | None = None,
        clock: SimulatedClock | None = None,
        persistence: CachePersister | None = None,
        recover: bool = True,
        admission: AdmissionController | None = None,
    ) -> None:
        if max_holes < 1:
            raise ValueError("max_holes must be at least 1")
        self._lock = named_lock("proxy.state")
        self.origin = origin
        self.templates = templates
        self.scheme = scheme
        #: What every decision trace says the scheme was allowed to try.
        self._scheme_flags = scheme.policy.describe()
        self.costs = costs or ProxyCostModel()
        self.obs = instrumentation or ProxyInstrumentation()
        # Origins that speak HTTP propagate the proxy's trace context
        # (the W3C traceparent header) on every fetch they make for us.
        binder = getattr(origin, "bind_scopes", None)
        if callable(binder):
            binder(self.obs)
        # Diagnostics from templates registered before this proxy existed,
        # then a live feed for everything registered after.
        for diagnostic in templates.analysis_diagnostics():
            self.obs.record_diagnostic(diagnostic)
        templates.add_analysis_observer(self.obs.record_diagnostic)
        self.topology = (topology or Topology()).instrumented(self.obs)
        self.cache = CacheManager(
            description or ArrayDescription(self.costs),
            max_bytes=cache_bytes,
            costs=self.costs,
            result_store=result_store,
            policy=replacement_policy,
            observer=self.obs,
        )
        self.evaluator = LocalEvaluator()
        self.max_holes = max_holes
        self.stats = TraceStats()
        self._query_index = 0
        self._seen_data_version = getattr(origin, "data_version", None)
        self.invalidations = 0
        # ---------------------------------------------------- resilience
        self.clock = clock or SimulatedClock()
        #: The time axis telemetry carries (flight-recorder events,
        #: time-series samples, health verdicts).  Defaults to the
        #: proxy's own work clock; an event-driven frontend rebinds it
        #: to the event loop at construction, so one run's telemetry
        #: lives on one monotone axis — the load timeline — instead of
        #: mixing the work clock into it.
        self.telemetry_clock = self.clock
        self.resilience = resilience or ResilienceConfig()
        self.breaker = CircuitBreaker(
            self.clock,
            failure_threshold=self.resilience.breaker_failure_threshold,
            cooldown_ms=self.resilience.breaker_cooldown_ms,
            on_state_change=self._on_breaker_transition,
        )
        self.obs.breaker_transition(BREAKER_STATE_VALUES[self.breaker.state])
        self.gateway = OriginGateway(
            retry=self.resilience.retry,
            breaker=self.breaker,
            rng=Random(self.resilience.jitter_seed),
            # Failed fast attempts cost one empty round trip, charged
            # through the topology so transfer metrics stay honest.
            failure_rtt_ms=lambda: self.topology.origin_round_trip_ms(
                0, factor=self.gateway.slowdown()
            ),
            listener=self.obs,
        )
        # ----------------------------------------------------- admission
        #: Optional admission gate: when set, ``serve`` consults it
        #: before starting any query work and turned-away queries get
        #: structured ``shed`` records instead of service.
        self.admission = admission
        if admission is not None:
            admission.bind(
                self.obs,
                allow_degrade=self.resilience.degradation.tunnel_on_overload,
            )
            self.obs.set_admission_queue_limit(
                admission.config.max_queue_depth
            )
        self.fault_plan: FaultPlan | None = None
        if fault_plan is not None:
            self.install_fault_plan(fault_plan)
        # --------------------------------------------------- persistence
        #: Crash-consistent durability sidecar; when set, every cache
        #: mutation is journaled and a warm restart replays it back.
        self.persistence = persistence
        #: The report of the warm-restart replay run at construction, or
        #: None (no persister, or ``recover=False`` for a cold start).
        self.recovery_report: RecoveryReport | None = None
        if persistence is not None:
            persistence.bind(
                self.cache,
                self.clock,
                # Journaled versions track scheduled bumps, also those
                # of a fault plan installed later.
                version_of=self.origin_data_version,
                obs=self.obs,
            )
            self.cache.mutation_log = persistence
            if recover:
                self.recovery_report = recover_cache(
                    persistence, self.cache, self.templates, obs=self.obs
                )
                report = self.recovery_report
                self.obs.telemetry_event(
                    EV_RECOVERY_COMPLETED,
                    at_ms=self.telemetry_clock.now_ms,
                    restored=report.entries_restored,
                    stale=report.entries_stale,
                    replayed=report.records_replayed,
                    clean=report.clean,
                )

    @property
    def metrics(self):
        """The proxy's metrics registry (``GET /metrics`` source)."""
        return self.obs.registry

    @property
    def tracer(self):
        """The proxy's span tracer (``GET /trace/recent`` source)."""
        return self.obs.tracer

    @property
    def profiler(self):
        """The proxy's hot-path profiler (``GET /profile`` source)."""
        return self.obs.profiler

    @property
    def timeseries(self):
        """The proxy's time-series recorder (``GET /timeseries``)."""
        return self.obs.timeseries

    @property
    def events(self):
        """The proxy's flight recorder (``GET /events`` source)."""
        return self.obs.events

    @property
    def seen_data_version(self) -> int | None:
        """The origin data version the cache's entries were admitted under.

        Trails ``origin.data_version`` between a bump and the next
        serve, which is when the proxy notices and flushes.
        """
        return self._seen_data_version

    def _on_breaker_transition(self, state: BreakerState) -> None:
        """Origin-breaker callback: gauge update plus an EV01-03 event.

        The breaker fires this after releasing its lock, and only on
        actual state changes, so every call is one timeline-worthy
        transition.
        """
        self.obs.breaker_transition(BREAKER_STATE_VALUES[state])
        self.obs.telemetry_event(
            BREAKER_EVENT_CODES[state.value],
            at_ms=self.telemetry_clock.now_ms,
            breaker="origin",
        )

    # --------------------------------------------------- fault injection
    def install_fault_plan(self, plan: FaultPlan | None) -> None:
        """Put the origin hop on a seeded fault schedule.

        ``None`` removes it.  Installing a plan does not reset the
        breaker or the trace statistics — a plan loaded mid-trace
        simply starts misbehaving from the current simulated time on.
        Raises :class:`FaultPlanError` for a plan with version bumps
        when the origin has no ``bump_data_version``.
        """
        if plan is not None and plan.version_bumps and not callable(
            getattr(self.origin, "bump_data_version", None)
        ):
            raise FaultPlanError(
                "the plan schedules version bumps, but this origin "
                "cannot bump its data version"
            )
        with self._lock:
            self.gateway.faults = None if plan is None else plan.session()
            self.fault_plan = plan

    def origin_data_version(self) -> int | None:
        """The origin's current data version, after applying the
        version bumps the installed fault plan has made due.

        The one read of the version: the data-version fence, the
        persister's journaled versions and a handoff's stale fence.
        Origins without a version attribute read ``None`` (immutable).
        """
        faults = self.gateway.faults
        if faults is not None:
            for _ in range(faults.due_version_bumps(self.clock.now_ms)):
                self.origin.bump_data_version()
        return getattr(self.origin, "data_version", None)

    # ------------------------------------------------------------ public
    def serve_form(
        self,
        form_name: str,
        form_values: Mapping[str, str],
        tenant: str = "default",
    ) -> ProxyResponse:
        """Serve a raw HTML form request (the HTTP listener's path)."""
        with self.obs.scope("bind", form=form_name):
            bound = self.templates.bind_form(form_name, form_values)
        return self.serve(bound, tenant=tenant)

    def serve(self, bound: BoundQuery, tenant: str = "default") -> ProxyResponse:
        """Serve one bound query; appends a record to ``stats``.

        Never raises for load or origin trouble: when an admission
        controller is installed and turns the query away, the caller
        gets a structured ``shed`` record (no cache, origin, or
        journal work); origin failures likewise become structured
        ``failed`` (or degraded) outcomes on the returned record.
        """
        if self.admission is None:
            return self.serve_admitted(bound)
        verdict = self.admission.try_admit(tenant, self.clock.now_ms)
        if not verdict.admitted:
            return self.reject(bound, verdict.reason, QueryOutcome.SHED)
        try:
            return self.serve_admitted(bound, degrade=verdict.degrade)
        finally:
            self.admission.release()

    def serve_admitted(
        self,
        bound: BoundQuery,
        queue_wait_ms: float = 0.0,
        degrade: bool = False,
    ) -> ProxyResponse:
        """Serve one query that already passed admission.

        ``queue_wait_ms`` is the simulated time the query spent in the
        accept queue (charged to the ``admit.queue`` step so response
        times include the wait); ``degrade`` forces tunnel mode — the
        overload path that skips all cache work.
        """
        index, data_version = self._begin_query()
        with self.obs.observe_query(
            index, bound.template_id, clock=self.clock
        ) as observation:
            observation.data_version = data_version
            self._open_record(bound, observation, queue_wait_ms)
            try:
                answer = self._classify(bound, observation, degrade)
            except (OriginUnavailable, OriginQueryError) as exc:
                # The promise that ``serve`` never raises for origin
                # trouble: a structured, empty ``failed`` answer.  It
                # counts as an origin contact even when nothing was
                # fetched (stale-disallowed): the origin was needed.
                record = observation.record
                record.contacted_origin = True
                record.retries = exc.retries
                answer = Answer.empty(
                    QueryStatus.FAILED, QueryOutcome.FAILED, exc.reason
                )
            return self._respond(observation, answer)

    def reject(
        self,
        bound: BoundQuery,
        reason: str,
        outcome: QueryOutcome,
        queue_wait_ms: float = 0.0,
    ) -> ProxyResponse:
        """Turn one query away with a structured record.

        The admission paths (``shed`` at arrival, ``queued-timeout``
        at dispatch) end here: the query gets an index, an observation,
        and a decision trace like any served query — but no cache,
        origin, or journal work happens, and the data-version fence is
        deliberately not consulted (a rejected query must not trigger
        a cache flush).
        """
        with self.obs.observe_query(
            self._next_index(), bound.template_id, clock=self.clock
        ) as observation:
            self._open_record(bound, observation, queue_wait_ms)
            with observation.stage("admit.shed", hidden=True):
                observation.decision.note(
                    f"admission turned the query away: {reason}"
                )
            return self._respond(
                observation,
                Answer.empty(QueryStatus.REJECTED, outcome, reason),
            )

    # ------------------------------------------------------------ stages
    def _next_index(self) -> int:
        """A fresh query index for a query that will not be served.

        Unlike ``_begin_query`` this does *not* run the data-version
        fence: shed queries must leave the cache (and thus the journal)
        untouched.
        """
        with self._lock:
            self._query_index += 1
            return self._query_index

    def _begin_query(self) -> tuple[int, object]:
        """Stage 0 (admission): assign the query's index and fence the
        data version.

        Runs under the ``proxy.state`` lock so concurrent serves get
        distinct indices and never race the version-change cache
        flush.  Returns ``(index, data_version)`` — the version the
        query is admitted under travels on the observation so
        ``_stage_admit`` can refuse to cache a result fetched before a
        concurrent flush (see the fence re-check there).
        """
        with self._lock:
            self._query_index += 1
            flushed = self._check_data_version()
            index, version = self._query_index, self._seen_data_version
        if flushed is not None:
            self.obs.telemetry_event(
                EV_DATA_VERSION_FLUSH,
                at_ms=self.telemetry_clock.now_ms,
                query_index=index,
                entries_flushed=flushed,
            )
        return index, version

    def _open_record(self, bound, observation, queue_wait_ms) -> None:
        """What every query starts with, served or turned away: its
        record, its decision trace and the queue-wait charge.

        Runs inside the entered observation, so the charge lands on
        the query's root stage.  The record's ``steps_ms`` is the
        observation's own ``steps`` — one dict, written by the stages.
        """
        observation.record = QueryRecord(
            observation.index, bound.template_id, steps_ms=observation.steps
        )
        observation.decision = self.obs.decisions.begin(
            observation.index,
            bound.template_id,
            query_region=bound.region,
            scheme=self.scheme.value,
            policy=self._scheme_flags,
        )
        if queue_wait_ms > 0:
            observation.charge("admit.queue", queue_wait_ms)

    def _classify(self, bound, observation, degrade) -> Answer:
        """Stages 1-2: tunnel, or dispatch on the cache relation."""
        policy = self.scheme.policy
        if degrade:
            observation.decision.note(
                "admission overload: degraded to tunnel (no cache work)"
            )
            observation.charge("parse", self.costs.parse_ms)
            return self._tunnel(bound, observation)
        if self._stage_parse_bind(bound, observation, policy):
            return self._tunnel(bound, observation)
        try:
            return self._stage_cache_probe(bound, observation, policy)
        except ResultStoreError as exc:
            # A cache-hit path lost its entry mid-serve (a concurrent
            # store evicted a candidate between the description probe
            # and the result read).  The query is still answerable —
            # treat it as a miss and forward.
            observation.decision.note(
                f"cache entry evicted mid-serve ({exc}); forwarded instead"
            )
            return self._forward_and_cache(
                bound, observation, QueryStatus.FORWARDED
            )

    def _stage_parse_bind(self, bound, observation, policy) -> bool:
        """Stage 1 (parse/bind): charge parsing, classify tunneling.

        Returns True when the query must be tunneled — the scheme
        never caches, the embedded function is not deterministic, or
        the template was admitted degraded by the analyzer — noting
        each reason on the decision trace.
        """
        decision = observation.decision
        observation.charge("parse", self.costs.parse_ms)
        deterministic = self._is_deterministic(bound)
        degraded = self.templates.is_degraded(bound.template_id)
        if policy.caches and deterministic and not degraded:
            return False
        if not policy.caches:
            decision.note("tunneled: scheme never caches")
        if not deterministic:
            decision.note(
                "tunneled: embedded function is not deterministic"
            )
        if degraded:
            decision.note(
                "tunneled: template admitted degraded by the analyzer"
            )
        return True

    def _stage_cache_probe(self, bound, observation, policy) -> Answer:
        """Stage 2 (cache probe): dispatch on the cache relation."""
        exact = self.cache.exact_match_pinned(bound)
        if exact is not None:
            entry, result = exact
            return self._serve_exact(bound, entry, result, observation)
        if not policy.handles_containment:
            return self._forward_and_cache(
                bound, observation, QueryStatus.FORWARDED
            )
        return self._serve_active(bound, observation, policy)

    def _serve_active(self, bound, observation, policy) -> Answer:
        candidates, relations = self._check_description(bound, observation)
        contained_in, subsumed, overlapping = [], [], []
        for entry, relation in zip(candidates, relations):
            if relation in (RegionRelation.CONTAINED, RegionRelation.EQUAL):
                contained_in.append((entry, relation))
            elif relation is RegionRelation.CONTAINS:
                subsumed.append(entry)
            elif relation is RegionRelation.OVERLAP:
                overlapping.append(entry)
        if contained_in:
            return self._serve_contained(bound, contained_in, observation)
        if (subsumed or overlapping) and self._attempt_overlap(
            bound, subsumed, overlapping
        ):
            return self._serve_overlap(
                bound, subsumed, overlapping, observation
            )
        if policy.handles_region_containment and subsumed:
            return self._serve_overlap(bound, subsumed, [], observation)
        status = (
            QueryStatus.DISJOINT
            if not (subsumed or overlapping)
            else QueryStatus.FORWARDED
        )
        return self._forward_and_cache(bound, observation, status)

    def _attempt_overlap(self, bound, subsumed, overlapping) -> bool:
        """Whether to handle this cache-intersecting query via probe +
        remainder.  The base proxy follows the scheme's static policy;
        :class:`repro.extensions.adaptive.AdaptiveProxy` overrides this
        with a learned estimate of whether remainders pay off."""
        return self.scheme.policy.handles_overlap

    def _stage_local_eval(self, bound, entries, inside, observation):
        """Stage 3 (local evaluation): run the query over cached rows.

        Evaluates under a ``local_eval`` phase — charging the
        per-tuple evaluation cost there and the per-tuple read cost to
        the ``read`` step — and returns the evaluator's outcome.  The
        contained and overlap cases share this accounting exactly.
        """
        with observation.phase(
            "local_eval", entries=len(entries)
        ) as local_eval:
            outcome = self.evaluator.select_in_region(bound, entries, inside)
            local_eval.charge(
                self.costs.eval_per_tuple_ms * outcome.tuples_evaluated
            )
            local_eval.count("tuples_evaluated", outcome.tuples_evaluated)
            local_eval.count("tuples_read", outcome.tuples_read)
        observation.charge(
            "read", self.costs.read_per_tuple_ms * outcome.tuples_read
        )
        return outcome

    def _stage_merge(self, bound, probe_result, origin_result, observation):
        """Stage 5 (merge): combine cached probe and origin remainder."""
        with observation.phase("merge") as merge:
            merged = probe_result.merge_dedup(
                origin_result, bound.key_column
            )
            merge.charge(self.costs.merge_per_tuple_ms * len(merged))
            merge.count("tuples", len(merged))
        return merged

    def _stage_admit(
        self, bound, result, origin_result, observation, consolidate=None
    ):
        """Stage 6 (admit): store the result, run cache maintenance.

        ``consolidate`` names the subsumed entries to fold into the
        new entry (the overlap path's region-containment maintenance);
        ``None`` is the plain forward-and-cache admission.  Returns
        ``(entry, report)`` — ``entry`` is None when nothing fit, or
        when the admission was fenced off (below).
        """
        with observation.phase("maintenance") as admit:
            truncated = self._is_truncated(bound, origin_result)
            # Re-check the data-version fence at admission, atomically
            # with the flush: _begin_query fences only the *start* of
            # the query, so a result fetched before a concurrent
            # version bump could otherwise be re-admitted into the
            # freshly flushed cache and serve stale EXACT hits
            # forever.  proxy.state -> proxy.cache is the established
            # acquisition order (_check_data_version flushes the cache
            # under the same nesting).
            with self._lock:
                admissible = (
                    observation.data_version == self._seen_data_version
                )
                if admissible:
                    entry, report = self.cache.store(
                        bound, result, bound.signature, truncated
                    )
                else:
                    entry, report = None, MaintenanceReport()
            decision = observation.decision
            if not admissible:
                decision.note(
                    "admission fenced: origin data version changed "
                    "while the query was in flight"
                )
            maintenance = report.charge_ms(self.costs)
            if consolidate is not None and entry is not None:
                for victim in consolidate:
                    maintenance += self.cache.remove(victim).charge_ms(
                        self.costs
                    )
            admit.charge(maintenance)
            if consolidate is not None:
                admit.annotate(
                    admitted=entry is not None,
                    evicted=report.evicted_entries,
                    consolidated=(
                        len(consolidate) if entry is not None else 0
                    ),
                )
                admit.count("evicted", report.evicted_entries)
                if entry is not None:
                    admit.count("consolidated", len(consolidate))
            else:
                admit.annotate(
                    admitted=entry is not None,
                    evicted=report.evicted_entries,
                )
            for eviction in report.evictions:
                decision.record_eviction(eviction)
            if consolidate is not None:
                decision.record_admission(
                    entry is not None,
                    [v.entry_id for v in consolidate]
                    if entry is not None
                    else None,
                )
            else:
                decision.record_admission(entry is not None)
        if report.evicted_entries >= EVICTION_STORM_THRESHOLD:
            self.obs.telemetry_event(
                EV_EVICTION_STORM,
                at_ms=self.telemetry_clock.now_ms,
                trace_id=observation.trace_id,
                query_index=observation.index,
                evicted=report.evicted_entries,
            )
        return entry, report

    # ------------------------------------------------------ description
    def _check_description(self, bound: BoundQuery, observation):
        """Probe the cache description and run exact relation checks.

        Returns ``(usable_entries, relations)`` where relations[i] is
        the relation of the *new* region to usable_entries[i]'s region.
        Besides the simulated charge, the real wall-clock time of the
        probe is recorded (the paper's "< 100 ms" claim is about real
        time, not modelled time).
        """
        decision = observation.decision
        description = self.cache.description
        probe_stage = f"probe.{getattr(description, 'kind', 'custom')}"
        with observation.phase("check") as check:
            # The probe sub-stage carries calls, wall time, and region
            # counters; its simulated cost is charged to the enclosing
            # ``check`` step (the cost model's unit of account).
            with observation.stage(probe_stage, hidden=True) as probe:
                candidates, probe_ms = description.candidates(
                    bound.template_id, bound.region
                )
                probe.count("candidates", len(candidates))
            signature = bound.signature
            usable = []
            for entry in candidates:
                if entry.signature != signature:
                    decision.record_candidate(
                        entry.entry_id,
                        "skipped",
                        entry.region,
                        rows=entry.row_count,
                        note="residual-predicate signature mismatch",
                    )
                elif entry.truncated:
                    decision.record_candidate(
                        entry.entry_id,
                        "skipped",
                        entry.region,
                        rows=entry.row_count,
                        note="truncated entry (exact matches only)",
                    )
                else:
                    usable.append(entry)
            with observation.stage(
                "relate", pairs=len(usable)
            ) as relate_stage:
                relations = [
                    relate(bound.region, entry.region) for entry in usable
                ]
                relate_stage.count("pairs", len(usable))
            for entry, relation in zip(usable, relations):
                decision.record_candidate(
                    entry.entry_id,
                    relation.value,
                    entry.region,
                    rows=entry.row_count,
                )
            check.charge(
                probe_ms + self.costs.check_per_candidate_ms * len(usable)
            )
            check.annotate(candidates=len(candidates), usable=len(usable))
        return usable, relations

    def _is_deterministic(self, bound: BoundQuery) -> bool:
        source = bound.template.statement.source
        registry = self.origin.catalog.functions
        try:
            return registry.is_deterministic(source.name)
        except Exception:
            # An unregistered function cannot be reasoned about; tunnel.
            return False

    # ------------------------------------------------------- degradation
    def _cache_answer_outcome(self) -> QueryOutcome:
        """Outcome for an answer served wholly from cache.

        While the breaker is not closed the origin is presumed down, so
        the answer cannot be revalidated: it is served ``degraded``
        (stale-serve) — or refused outright when the degradation policy
        forbids stale answers.
        """
        if self.breaker.state is BreakerState.CLOSED:
            return QueryOutcome.SERVED
        if not self.resilience.degradation.stale_ok:
            raise OriginUnavailable("stale-disallowed")
        return QueryOutcome.DEGRADED

    def _origin_fetch(self, observation, kind, fn) -> ResultTable:
        """One resilient origin request under an ``origin`` phase.

        The one place that knows a fetch happened, so it writes the
        fetch's facts onto the query's record: the contact (before the
        attempt — a failed one still contacted the origin), then
        retries, bytes shipped and the ``transfer`` charge.  Returns
        the rows; raises the gateway's structured errors when the
        origin cannot or will not answer.
        """
        record = observation.record
        record.contacted_origin = True
        with observation.phase("origin", kind=kind) as origin_fetch:
            response, record.retries = self.gateway.call(fn, observation)
            origin_fetch.charge(response.server_ms)
            origin_fetch.annotate(retries=record.retries)
        record.origin_bytes = response.result.byte_size()
        observation.charge(
            "transfer",
            self.topology.origin_round_trip_ms(
                record.origin_bytes, factor=self.gateway.slowdown()
            ),
        )
        return response.result

    # ------------------------------------------------------ case (a)
    def _serve_exact(
        self, bound, entry: CacheEntry, result: ResultTable, observation
    ) -> Answer:
        """``result`` is the entry's stored result, read by the probe
        stage under ``proxy.cache`` (pinned): reading it here instead
        would race a concurrent eviction of ``entry``."""
        outcome = self._cache_answer_outcome()
        observation.decision.record_candidate(
            entry.entry_id,
            "exact",
            entry.region,
            rows=entry.row_count,
            note="identical cached query",
        )
        self.cache.touch(entry)
        observation.charge(
            "read", self.costs.read_per_tuple_ms * len(result)
        )
        return Answer(result, QueryStatus.EXACT, len(result), outcome)

    # ------------------------------------------------------ case (b)
    def _serve_contained(self, bound, contained_in, observation) -> Answer:
        """``contained_in`` pairs each subsuming entry with its relation."""
        outcome = self._cache_answer_outcome()
        # Any subsuming entry works; scan the smallest result.
        entry, relation = min(contained_in, key=lambda pair: pair[0].row_count)
        observation.decision.note(
            f"evaluated locally over entry {entry.entry_id} "
            "(smallest subsuming result)"
        )
        self.cache.touch(entry)
        # An EQUAL entry lies wholly inside the query's region.
        inside = {entry.entry_id} if relation is RegionRelation.EQUAL else ()
        local = self._stage_local_eval(bound, [entry], inside, observation)
        result = self.evaluator.finalize(bound, local.result)
        return Answer(result, QueryStatus.CONTAINED, len(result), outcome)

    # ------------------------------------------------------ case (c)
    def _serve_overlap(
        self, bound, subsumed, overlapping, observation
    ) -> Answer:
        # The entries used as remainder holes, largest results first to
        # maximize the cached share, capped: the origin tests every
        # remainder row against every hole, and prices each one.
        used = sorted(
            subsumed + overlapping, key=lambda e: e.row_count, reverse=True
        )[: self.max_holes]
        subsumed_ids = {entry.entry_id for entry in subsumed}
        used_subsumed = [
            entry for entry in used if entry.entry_id in subsumed_ids
        ]
        for entry in used:
            self.cache.touch(entry)
        status = (
            QueryStatus.REGION_CONTAINMENT
            if not overlapping
            else QueryStatus.OVERLAP
        )

        probe = self._stage_local_eval(bound, used, subsumed_ids, observation)

        with observation.phase("remainder_build", record=False) as build:
            remainder = build_remainder(bound, [e.region for e in used])
            build.annotate(holes=remainder.n_holes)
            build.count("holes", remainder.n_holes)
        observation.decision.record_remainder(remainder)
        try:
            origin_result = self._origin_fetch(
                observation,
                "remainder",
                lambda: self.origin.execute_remainder(
                    bound, remainder.region.holes
                ),
            )
        except OriginUnavailable as exc:
            if not self.resilience.degradation.partial_ok:
                raise
            # Overlap degradation: the client gets the cached portion
            # only (``206`` at the HTTP layer).  Nothing is cached —
            # the merged region was never completed.
            observation.decision.note(
                f"remainder fetch failed ({exc.reason}); served the "
                "cached portion only"
            )
            observation.record.retries = exc.retries
            result = self.evaluator.finalize(bound, probe.result)
            return Answer(
                result, status, len(result), QueryOutcome.PARTIAL, exc.reason
            )

        merged = self._stage_merge(
            bound, probe.result, origin_result, observation
        )
        result = self.evaluator.finalize(bound, merged)

        # Count the cached contribution that survived into the answer.
        key_position = result.schema.position(bound.key_column)
        probe_position = probe.result.schema.position(bound.key_column)
        probe_keys = {row[probe_position] for row in probe.result.rows}
        from_cache = sum(
            1 for row in result.rows if row[key_position] in probe_keys
        )

        # Cache the merged full-region result and consolidate subsumed
        # entries into it (the paper's region-containment maintenance).
        self._stage_admit(
            bound, merged, origin_result, observation, used_subsumed
        )
        return Answer(result, status, from_cache)

    # ------------------------------------------------------ case (d)
    def _forward_and_cache(self, bound, observation, status) -> Answer:
        result = self._origin_fetch(
            observation, "forward", lambda: self.origin.execute_bound(bound)
        )
        self._stage_admit(bound, result, result, observation)
        return Answer(result, status, 0)

    def _tunnel(self, bound, observation) -> Answer:
        result = self._origin_fetch(
            observation, "tunnel", lambda: self.origin.execute_bound(bound)
        )
        return Answer(result, QueryStatus.NO_CACHE, 0)

    # ---------------------------------------------------------- helpers
    def _check_data_version(self) -> int | None:
        """Flush the cache when the origin's data version moved.

        Cached results are snapshots of the origin's base data; the
        determinism that justifies caching holds only per data version
        (paper property 1: "nothing changes over time").  Origins
        without a version attribute are treated as immutable.  Returns
        the number of entries flushed, or None when the version held
        (the caller owes a flush event — emitted outside the lock).
        """
        version = self.origin_data_version()
        if version == self._seen_data_version:
            return None
        flushed = len(self.cache)
        self.cache.clear()
        self._seen_data_version = version
        self.invalidations += 1
        return flushed

    @staticmethod
    def _is_truncated(bound: BoundQuery, origin_result: ResultTable) -> bool:
        """Whether a stored result may be an incomplete region answer."""
        top = bound.top
        return top is not None and len(origin_result) >= top

    def _respond(
        self, observation: QueryObservation, answer: Answer
    ) -> ProxyResponse:
        """Close the query's record and hand it over, once, to
        everything that counts queries — the only place a record
        leaves the serve path."""
        result, status, from_cache, outcome, reason = answer
        record = observation.record
        record.status = status
        record.outcome = outcome
        record.failure_reason = reason
        record.tuples_from_cache = from_cache
        record.tuples_total = len(result)
        record.result_bytes = result.byte_size()
        record.response_ms = sum(record.steps_ms.values())
        record.check_wall_ms = observation.check_wall_ms
        record.cache_bytes_after = self.cache.current_bytes
        record.cache_entries_after = len(self.cache)
        observation.annotate(
            status=status.value,
            outcome=outcome.value,
            response_sim_ms=round(record.response_ms, 3),
            tuples=record.tuples_total,
        )
        trace_id = observation.trace_id
        decision = observation.decision
        decision.finish(status.value, outcome.value, trace_id=trace_id)
        self.obs.decisions.record(decision)
        self.obs.observe_record(record, trace_id=trace_id)
        self.obs.sample_telemetry(self.telemetry_clock.now_ms)
        self.stats.add(record)
        return ProxyResponse(result=result, record=record)
