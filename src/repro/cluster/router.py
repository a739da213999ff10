# concurrency: serve-path
"""The shard router: consistent-hash dispatch with health-aware failover.

A :class:`ShardRouter` fronts N :class:`~repro.core.proxy.FunctionProxy`
shard workers.  Each query is hashed by its *bound template* onto the
:class:`~repro.cluster.ring.HashRing` — every binding of one template
lands on one shard, so that shard accumulates the template's cached
regions and the semantic-overlap machinery keeps working per shard.
Templates listed in ``RouterConfig.region_partitions`` are instead
hashed by template *plus* a coarse spatial cell of the bound region, so
a hot sky-survey template spreads across shards while queries near each
other still share a cache.

Failover never raises: a shard that is crashed or hung (the seeded
:class:`~repro.faults.shard.ShardCrashPlan`), drained, or judged
``unhealthy`` by its own health verdict
(:meth:`~repro.obs.instrument.TelemetryBundle.health`) is skipped and
the walk continues down the key's preference order.
When no shard can take the query, the router tunnels it to the origin
through its fallback, a proxy whose scheme never caches (so
``fallback.serve_admitted`` does no cache work).  Without a fallback
it sheds with the structured ``shed`` outcome — the same turned-away
vocabulary single-proxy admission uses.

A *crash* loses the shard's memory but not its disk: the router clears
the dead shard's cache (persister suspended, so the durable image
survives), reads the snapshot+journal image back, and warm-hands it to
the first live ring successor through the normal ``cache.store`` path
(:mod:`repro.cluster.handoff`).  A *drain* is the planned version of
the same movement, exporting the live cache instead.

Locking: ``router.state`` guards the routing sequence, the decision
log, the drained/crash bookkeeping, and the fault session's rng.  The
router never calls into a shard proxy, emits an event, or bumps a
metric while holding it — shard-side locks (``proxy.*``) are acquired
only after ``router.state`` is released, so
:data:`repro.locking.LOCK_ORDER` has no edge out of ``router.state``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.cluster.handoff import (
    HandoffReport,
    encode_handoff,
    export_records,
    persisted_records,
    replay_records,
)
from repro.cluster.ring import VNODES, HashRing
from repro.core.stats import QueryOutcome
from repro.faults.plan import Fate, FaultSession
from repro.faults.shard import ShardCrashPlan
from repro.geometry.regions import ConvexPolytope, HyperRect, HyperSphere, Region
from repro.locking import guarded_by, named_lock, read_only, unshared
from repro.network.clock import Clock, SimulatedClock
from repro.obs.decisions import DECISION_CAPACITY
from repro.obs.events import (
    EV_FAILOVER_REROUTE,
    EV_HANDOFF_COMPLETED,
    EV_SHARD_CRASH,
    NULL_EVENTS,
    newest,
)
from repro.obs.health import HEALTHY, UNHEALTHY, evaluate_samples
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import NULL_TIMESERIES, ROUTER_LANES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.proxy import FunctionProxy, ProxyResponse
    from repro.persistence.records import AdmitRecord
    from repro.templates.manager import BoundQuery

#: The structured-rejection reason a query sheds with when its shard
#: tier cannot take it (no live shard, no origin fallback).
REASON_SHARD_DOWN = "shard-down"

#: Per-shard statuses that mean "do not dispatch here".
_NOT_DISPATCHABLE = ("unhealthy", "unreachable", "drained")


@dataclass(frozen=True)
class Shard:
    """One shard worker: a stable id plus its proxy."""

    shard_id: str
    proxy: "FunctionProxy"


@dataclass(frozen=True)
class RouterConfig:
    """Routing policy knobs.

    ``region_partitions`` maps a template id to a spatial cell size:
    bindings of that template route by template *and* the cell their
    region's center falls in, spreading one hot template across shards.
    ``failover=False`` is the experiment control — the router only ever
    tries the primary, so a crashed shard's queries visibly fail, and a
    crashed shard's persisted entries are not handed off.
    """

    failover: bool = True
    region_partitions: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for template_id, cell in self.region_partitions.items():
            if cell <= 0:
                raise ValueError(
                    f"region partition cell for {template_id!r} must be "
                    f"positive: {cell}"
                )


@dataclass(frozen=True)
class RouteAttempt:
    """One shard consulted during a route walk and what happened.

    ``fate`` is one of ``dispatched`` (the query went here),
    ``drained`` (administratively out), ``crash`` / ``hang`` /
    ``transient`` (the fault session's verdicts), or ``unhealthy``
    (the shard's own health verdict said stay away).
    """

    shard_id: str
    fate: str

    def to_dict(self) -> dict[str, Any]:
        return {"shard_id": self.shard_id, "fate": self.fate}


@dataclass(frozen=True)
class RouteDecision:
    """One query's complete routing outcome (the determinism artifact).

    ``dispatched`` is ``None`` when every candidate was refused — the
    query then tunnels to the origin fallback or sheds.
    """

    seq: int
    key: str
    primary: str
    attempts: tuple[RouteAttempt, ...]
    dispatched: str | None
    slowdown: float = 1.0

    @property
    def rerouted(self) -> bool:
        """True when the query landed on a non-primary shard."""
        return self.dispatched is not None and self.dispatched != self.primary

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "key": self.key,
            "primary": self.primary,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
            "dispatched": self.dispatched,
            "slowdown": self.slowdown,
        }


def _region_center(region: Region) -> tuple[float, ...] | None:
    """A representative point for spatial partitioning, or ``None``."""
    if isinstance(region, HyperSphere):
        return tuple(region.center)
    if isinstance(region, HyperRect):
        return tuple(
            (low + high) / 2.0
            for low, high in zip(region.lows, region.highs)
        )
    if isinstance(region, ConvexPolytope):
        bbox = region.bbox
        return tuple(
            (low + high) / 2.0 for low, high in zip(bbox.lows, bbox.highs)
        )
    return None


@guarded_by(
    "router.state",
    "_seq",
    "decisions",
    "_drained",
    "_crash_handled",
    "handoffs",
)
@unshared("clock")
@read_only(
    # _session is bound once; its *interior* rng state mutates only
    # under router.state (route/check_faults draw while holding it).
    "_session",
    "config",
    "fallback",
    "registry",
    "events",
    "timeseries",
)
class ShardRouter:
    """Consistent-hash front tier over N shard proxies.

    Construction wires the ring, the seeded fault session, and the
    router's own metrics registry (the five ``router_*`` families the
    pinned ``ROUTER_LANES`` sample).

    ``clock`` is the router's own simulated time, and every method
    reads it.  On the direct path (:meth:`serve_routed`) it advances
    by each answer's simulated response time, so fault windows and
    telemetry samples follow the time served; the event-loop frontend
    rebinds it to the loop during single-threaded wiring (hence
    ``unshared``), and then the loop alone moves it.
    """

    def __init__(
        self,
        shards: tuple[Shard, ...] | list[Shard],
        fallback: "FunctionProxy | None" = None,
        config: RouterConfig | None = None,
        crash_plan: ShardCrashPlan | None = None,
        events: Any = None,
        timeseries: Any = None,
    ) -> None:
        if not shards:
            raise ValueError("a shard router needs at least one shard")
        ids = [shard.shard_id for shard in shards]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids: {sorted(ids)}")
        if fallback is not None and fallback.scheme.policy.caches:
            raise ValueError(
                "the origin fallback must be a proxy that never caches, "
                f"not {fallback.scheme.value!r}"
            )
        self.config = config if config is not None else RouterConfig()
        self._shards: dict[str, Shard] = {
            shard.shard_id: shard for shard in shards
        }
        self._ring = HashRing(ids)
        self.fallback = fallback
        self.clock: Clock = SimulatedClock()
        self.events = events if events is not None else NULL_EVENTS
        self.timeseries = (
            timeseries if timeseries is not None else NULL_TIMESERIES
        )
        self._lock = named_lock("router.state")
        self._session: FaultSession | None = (
            crash_plan.session() if crash_plan is not None else None
        )
        self._seq = 0
        self.decisions: deque[RouteDecision] = deque(
            maxlen=DECISION_CAPACITY
        )
        self._drained: set[str] = set()
        self._crash_handled: set[str] = set()
        self.handoffs: list[HandoffReport] = []
        self.registry = MetricsRegistry()
        self._metric_queries = self.registry.counter(
            "router_queries_total", "Queries the router dispatched or refused"
        )
        self._metric_failover = self.registry.counter(
            "router_failover_total", "Queries dispatched off their primary"
        )
        self._metric_tunnel = self.registry.counter(
            "router_tunnel_total", "Queries tunnelled to the origin fallback"
        )
        self._metric_shards_up = self.registry.gauge(
            "router_shards_up", "Shards currently dispatchable"
        )
        self._metric_shards_total = self.registry.gauge(
            "router_shards_total", "Shards configured"
        )
        self.timeseries.bind(self.registry, ROUTER_LANES)
        self._metric_shards_total.set(float(len(self._shards)))
        self._metric_shards_up.set(float(len(self._shards)))

    # ---------------------------------------------------------- topology
    @property
    def shard_ids(self) -> tuple[str, ...]:
        return self._ring.nodes

    @property
    def ring(self) -> HashRing:
        return self._ring

    def shard(self, shard_id: str) -> Shard:
        return self._shards[shard_id]

    def route_key(self, bound: "BoundQuery") -> str:
        """The string the ring hashes for ``bound``.

        Plain templates route by template id alone; a template with a
        configured region partition routes by template id plus the
        cell its region center falls in.
        """
        cell = self.config.region_partitions.get(bound.template_id)
        if cell is not None:
            center = _region_center(bound.region)
            if center is not None:
                coords = ",".join(
                    str(math.floor(coordinate / cell))
                    for coordinate in center
                )
                return f"{bound.template_id}@{coords}"
        return bound.template_id

    # ------------------------------------------------------------ health
    def shard_statuses(self) -> dict[str, str]:
        """Every shard's dispatch verdict now.

        Fault-session reachability (on the router's clock) wins over
        the shard's own verdict (on its bundle's clock): a crashed
        shard's telemetry would happily report healthy.
        Health is evaluated *before* ``router.state`` is taken — the
        verdicts acquire shard-side locks the router must never hold
        its own lock across.
        """
        now_ms = self.clock.now_ms
        with self._lock:
            drained = set(self._drained)
            session = self._session
        statuses: dict[str, str] = {}
        for shard_id, shard in self._shards.items():
            if shard_id in drained:
                statuses[shard_id] = "drained"
            elif session is not None and session.down(shard_id, now_ms):
                statuses[shard_id] = "unreachable"
            else:
                statuses[shard_id] = str(shard.proxy.obs.health()["status"])
        return statuses

    def shards_up(self) -> int:
        """How many shards the router would currently dispatch to."""
        statuses = self.shard_statuses()
        return sum(
            1
            for status in statuses.values()
            if status not in _NOT_DISPATCHABLE
        )

    def health(self) -> dict[str, Any]:
        """The aggregate tier verdict (HR06 active) plus per-shard detail."""
        now_ms = self.clock.now_ms
        statuses = self.shard_statuses()
        down = sum(
            1
            for status in statuses.values()
            if status in _NOT_DISPATCHABLE
        )
        report = evaluate_samples(
            self.timeseries.samples(),
            shards_down=down,
            shards_total=len(self._shards),
        )
        report["at_ms"] = float(now_ms)
        report["shards"] = dict(sorted(statuses.items()))
        report["shards_total"] = len(self._shards)
        report["shards_up"] = len(self._shards) - down
        return report

    # ----------------------------------------------------------- routing
    def route(
        self,
        bound: "BoundQuery",
        statuses: Mapping[str, str] | None = None,
    ) -> RouteDecision:
        """Pick the shard for ``bound`` now; never raises.

        The walk follows the key's ring preference order (truncated to
        the primary when failover is off).  Each live candidate costs
        exactly one fault-session rng draw; drained shards are skipped
        without a draw (draining is administrative state, not chance),
        so plan variants sharing a seed stay draw-aligned.
        """
        key = self.route_key(bound)
        now_ms = self.clock.now_ms
        if statuses is None:
            statuses = self.shard_statuses()
        with self._lock:
            self._seq += 1
            seq = self._seq
            preference = self._ring.preference(key)
            primary = preference[0]
            candidates = (
                preference if self.config.failover else preference[:1]
            )
            attempts: list[RouteAttempt] = []
            dispatched: str | None = None
            slowdown = 1.0
            for shard_id in candidates:
                if shard_id in self._drained:
                    attempts.append(RouteAttempt(shard_id, "drained"))
                    continue
                fate, factor = (
                    (Fate.NONE, 1.0)
                    if self._session is None
                    else self._session.attempt(shard_id, now_ms)
                )
                if fate is not Fate.NONE:
                    attempts.append(RouteAttempt(shard_id, fate.value))
                    continue
                if statuses.get(shard_id) == UNHEALTHY:
                    attempts.append(RouteAttempt(shard_id, "unhealthy"))
                    continue
                attempts.append(RouteAttempt(shard_id, "dispatched"))
                dispatched = shard_id
                slowdown = factor
                break
            decision = RouteDecision(
                seq=seq,
                key=key,
                primary=primary,
                attempts=tuple(attempts),
                dispatched=dispatched,
                slowdown=slowdown,
            )
            self.decisions.append(decision)
        self._metric_queries.inc()
        if decision.rerouted:
            self._metric_failover.inc()
            self.events.emit(
                EV_FAILOVER_REROUTE,
                at_ms=now_ms,
                key=key,
                from_shard=primary,
                to_shard=decision.dispatched,
                attempts=len(decision.attempts),
            )
        return decision

    def serve_routed(
        self, bound: "BoundQuery", tenant: str = "default"
    ) -> "tuple[ProxyResponse, RouteDecision]":
        """Serve one query through the tier; the full router path.

        Checks the fault schedule (crash transitions fire their EV12
        and warm handoff here), routes, dispatches to the chosen
        shard's own serve path (its admission controller applies), and
        falls back to the origin tunnel or a structured shed when no
        shard can take the query.  The router's clock then advances by
        the answer's simulated response time, before the telemetry
        sample — when the router owns its clock; a router bound to the
        event loop leaves time to the loop.
        """
        self.check_faults()
        statuses = self.shard_statuses()
        decision = self.route(bound, statuses)
        if decision.dispatched is not None:
            shard = self._shards[decision.dispatched]
            response = shard.proxy.serve(bound, tenant=tenant)
        else:
            response = self.undispatched_response(bound, decision)
        if isinstance(self.clock, SimulatedClock):
            self.clock.advance(response.record.response_ms)
        self.sample_telemetry(statuses)
        return response, decision

    def serve(
        self, bound: "BoundQuery", tenant: str = "default"
    ) -> "ProxyResponse":
        """:meth:`serve_routed` without the decision (drop-in proxy shape)."""
        response, _ = self.serve_routed(bound, tenant=tenant)
        return response

    def undispatched_response(
        self, bound: "BoundQuery", decision: RouteDecision
    ) -> "ProxyResponse":
        """The no-shard-took-it path: origin tunnel, else structured shed.

        The fallback tunnels by its own scheme (no cache work, and no
        admission, so no quota applies); the shed is recorded against
        the primary shard so turned-away traffic shows up in that
        shard's stats and outcome counts.
        """
        if self.config.failover and self.fallback is not None:
            self._metric_tunnel.inc()
            return self.fallback.serve_admitted(bound)
        primary = self._shards[decision.primary]
        return primary.proxy.reject(
            bound, REASON_SHARD_DOWN, QueryOutcome.SHED
        )

    # ------------------------------------------------------------ faults
    def check_faults(self) -> None:
        """Advance the fault schedule to the router's now.

        Each crash/hang window that has begun fires one EV12; each
        *crash* additionally loses the shard's memory (cache cleared
        with the persister suspended, so the disk image survives) and,
        when configured, warm-hands the durable image to the first
        live ring successor.
        """
        now_ms = self.clock.now_ms
        with self._lock:
            session = self._session
            if session is None:
                return
            newly = session.newly_down(now_ms)
            crashes: list[str] = []
            for shard_id, kind, _start_ms in newly:
                if (
                    kind == "crash"
                    and shard_id in self._shards
                    and shard_id not in self._crash_handled
                ):
                    self._crash_handled.add(shard_id)
                    crashes.append(shard_id)
        for shard_id, kind, start_ms in newly:
            self.events.emit(
                EV_SHARD_CRASH,
                at_ms=now_ms,
                shard=shard_id,
                kind=kind,
                start_ms=start_ms,
            )
        for shard_id in crashes:
            self._handle_crash(shard_id)

    def _handle_crash(self, shard_id: str) -> None:
        """Model the process death: memory gone, disk intact, hand off."""
        shard = self._shards[shard_id]
        persister = shard.proxy.persistence
        if persister is not None:
            # Suspend the mutation-log hooks around the clear so the
            # durable image is not journalled away with the memory.
            persister.set_suspended(True)
            try:
                shard.proxy.cache.clear()
            finally:
                persister.set_suspended(False)
        else:
            shard.proxy.cache.clear()
        if not self.config.failover or persister is None:
            return
        self._hand_off(shard_id, persisted_records(persister))

    def _hand_off(
        self, source: str, records: tuple[AdmitRecord, ...]
    ) -> HandoffReport | None:
        """Replay ``records`` into ``source``'s first live successor.

        The one movement crash and drain share: replay through the
        successor's ``cache.store``, log the report, emit EV14.
        Returns ``None`` (nothing moved, nothing logged) when no
        successor is live.
        """
        target = self._successor(source)
        if target is None:
            return None
        report = replay_records(
            records,
            self._shards[target].proxy,
            source=source,
            target=target,
            bytes_total=len(encode_handoff(records)),
        )
        with self._lock:
            self.handoffs.append(report)
        self.events.emit(
            EV_HANDOFF_COMPLETED,
            at_ms=self.clock.now_ms,
            source=report.source,
            target=report.target,
            entries=report.entries,
            replayed=report.replayed,
            stale=report.stale,
        )
        return report

    def _successor(self, shard_id: str) -> str | None:
        """The first live, undrained ring successor of ``shard_id``."""
        now_ms = self.clock.now_ms
        with self._lock:
            drained = set(self._drained)
            session = self._session
        for candidate in self._ring.successors(shard_id):
            if candidate in drained:
                continue
            if session is not None and session.down(candidate, now_ms):
                continue
            return candidate
        return None

    # ------------------------------------------------------------- drain
    def drain(self, shard_id: str) -> HandoffReport | None:
        """Administratively retire ``shard_id``, warm-handing its cache.

        The planned twin of the crash path: the *live* cache is
        exported (no disk round trip needed) and replayed into the
        first live ring successor.  Returns ``None`` when the shard
        was already drained; a drain with no live successor still
        retires the shard but moves nothing.
        """
        if shard_id not in self._shards:
            raise ValueError(f"unknown shard {shard_id!r}")
        with self._lock:
            if shard_id in self._drained:
                return None
            self._drained.add(shard_id)
        records = export_records(
            self._shards[shard_id].proxy, shard_id, self.clock.now_ms
        )
        report = self._hand_off(shard_id, records)
        if report is None:
            report = HandoffReport(
                source=shard_id,
                target="",
                entries=len(records),
                replayed=0,
                stale=0,
                errors=0,
                rejected=0,
                evicted=0,
                bytes_total=0,
            )
            with self._lock:
                self.handoffs.append(report)
        return report

    # --------------------------------------------------------- telemetry
    def sample_telemetry(
        self, statuses: Mapping[str, str] | None = None
    ) -> None:
        """Refresh the tier gauges and offer the recorder a sample."""
        if statuses is None:
            statuses = self.shard_statuses()
        up = sum(
            1
            for status in statuses.values()
            if status not in _NOT_DISPATCHABLE
        )
        self._metric_shards_up.set(float(up))
        self.timeseries.maybe_sample(self.clock.now_ms)

    def recent_decisions(self, n: int | None = None) -> list[RouteDecision]:
        """The newest ``n`` of the last ``DECISION_CAPACITY`` routing
        decisions (``router_failover_total`` counts them all), oldest
        first."""
        with self._lock:
            decisions = list(self.decisions)
        return newest(decisions, n)

    def status(self) -> dict[str, Any]:
        """The ``GET /shards`` payload."""
        statuses = self.shard_statuses()
        with self._lock:
            seq = self._seq
            handoffs = [report.to_dict() for report in self.handoffs]
            drained = sorted(self._drained)
        shards = []
        for shard_id in self._ring.nodes:
            proxy = self._shards[shard_id].proxy
            shards.append(
                {
                    "shard_id": shard_id,
                    "status": statuses[shard_id],
                    "drained": shard_id in drained,
                    "cache_entries": len(proxy.cache.entries()),
                    "queries": len(proxy.stats.records),
                }
            )
        return {
            "shards": shards,
            "ring": {
                "vnodes": VNODES,
                "nodes": list(self._ring.nodes),
            },
            "failover": self.config.failover,
            "fallback": self.fallback is not None,
            "decisions_total": seq,
            "handoffs": handoffs,
            "drained": drained,
        }


#: Re-exported so callers can assert "the tier is healthy" without
#: importing obs internals alongside the router.
__all__ = [
    "HEALTHY",
    "REASON_SHARD_DOWN",
    "RouteAttempt",
    "RouteDecision",
    "RouterConfig",
    "Shard",
    "ShardRouter",
]
