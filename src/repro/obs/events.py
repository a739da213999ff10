"""The flight recorder: a bounded log of serve-path state transitions.

Metrics say *how much*; the flight recorder says *when*.  Every
operationally interesting state transition — the origin breaker
opening, the shed policy kicking in, a data-version flush emptying the
cache — is emitted as one structured event with a **pinned EV code**,
the simulated timestamp it happened at, optional trace/query-id links,
and a free-form payload.  Events live in a bounded ring buffer (the
newest ``capacity`` survive), so the recorder is safe to leave on in
long runs; ``GET /events`` and the ``events-<label>.json`` harness
artifact expose the buffer.

Event codes are stable identifiers pinned in DESIGN.md, exactly like
the FP diagnostic codes and the profiler stage names: emitting an
ad-hoc string instead of a registry code raises in
:meth:`EventRecorder.emit`.
Renaming a code is a breaking change for dashboards and tests keyed
on it.

Two implementations share the interface, following the
:class:`~repro.obs.profiling.NullProfiler` pattern:

* :class:`EventRecorder` — records everything, guarded by the
  ``proxy.telemetry`` named lock (a pure sink in the lock-order
  graph: emitters may hold their own locks while emitting);
* :class:`NullEventRecorder` — the default off switch: ``emit`` is a
  single no-op method call, preserving the PR 6 overhead contract.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Mapping

from repro.locking import guarded_by, named_lock, read_only

#: The origin circuit breaker opened (origin presumed down).
EV_BREAKER_OPEN = "EV01"
#: The origin circuit breaker moved to half-open (probe admitted).
EV_BREAKER_HALF_OPEN = "EV02"
#: The origin circuit breaker closed (origin healthy again).
EV_BREAKER_CLOSED = "EV03"
#: The admission shed policy activated (overload breaker opened).
EV_SHED_ACTIVATED = "EV04"
#: The admission shed policy deactivated (overload breaker closed).
EV_SHED_DEACTIVATED = "EV05"
#: The origin's data version moved; the whole cache was flushed.
EV_DATA_VERSION_FLUSH = "EV06"
#: Warm-restart recovery finished replaying the journal.
EV_RECOVERY_COMPLETED = "EV07"
#: Queued requests were dropped at dispatch for missing the deadline.
EV_QUEUE_DEADLINE_DROPS = "EV08"
#: One admission evicted an unusually large number of entries.
EV_EVICTION_STORM = "EV09"
#: The persister wrote a snapshot and reset the journal.
EV_SNAPSHOT_CHECKPOINT = "EV10"
#: The health monitor's overall verdict changed.
EV_HEALTH_STATE_CHANGE = "EV11"
#: A shard worker crashed, hung, or slowed per its ShardCrashPlan.
EV_SHARD_CRASH = "EV12"
#: The router re-routed a query away from an unhealthy/down shard.
EV_FAILOVER_REROUTE = "EV13"
#: A warm handoff finished replaying a shard's cache into a successor.
EV_HANDOFF_COMPLETED = "EV14"

#: The pinned event-code registry (see DESIGN.md): code -> stable name.
EVENT_CODES: Mapping[str, str] = {
    EV_BREAKER_OPEN: "breaker-open",
    EV_BREAKER_HALF_OPEN: "breaker-half-open",
    EV_BREAKER_CLOSED: "breaker-closed",
    EV_SHED_ACTIVATED: "shed-policy-activated",
    EV_SHED_DEACTIVATED: "shed-policy-deactivated",
    EV_DATA_VERSION_FLUSH: "data-version-flush",
    EV_RECOVERY_COMPLETED: "recovery-completed",
    EV_QUEUE_DEADLINE_DROPS: "queue-deadline-drops",
    EV_EVICTION_STORM: "eviction-storm",
    EV_SNAPSHOT_CHECKPOINT: "snapshot-checkpoint",
    EV_HEALTH_STATE_CHANGE: "health-state-change",
    EV_SHARD_CRASH: "shard-crash",
    EV_FAILOVER_REROUTE: "failover-reroute",
    EV_HANDOFF_COMPLETED: "handoff-completed",
}

#: Breaker-state value -> breaker event code, keyed by the state's
#: string value so emitters need not import the resilience module.
BREAKER_EVENT_CODES: Mapping[str, str] = {
    "open": EV_BREAKER_OPEN,
    "half-open": EV_BREAKER_HALF_OPEN,
    "closed": EV_BREAKER_CLOSED,
}

#: Overload-breaker state value -> shed-policy event code.  Half-open
#: is deliberately absent: the policy is only *probing* then, neither
#: active nor lifted.
SHED_POLICY_EVENT_CODES: Mapping[str, str] = {
    "open": EV_SHED_ACTIVATED,
    "closed": EV_SHED_DEACTIVATED,
}

#: Evictions in one cache admission at or above this count are an
#: eviction storm (EV09): one incoming result displacing this much of
#: the working set is replacement-policy news worth a timeline mark.
EVICTION_STORM_THRESHOLD = 4


@guarded_by("proxy.telemetry", "_events", "_total", "_counts")
@read_only("capacity")
class EventRecorder:
    """A bounded, thread-safe recorder of pinned serve-path events.

    ``emit`` validates the code against :data:`EVENT_CODES` — an
    unknown code is a programming error, caught loudly rather than
    silently polluting the timeline.  The buffer keeps the newest
    ``capacity`` events; ``total``/``counts`` keep counting across
    wraparound so the snapshot says how much history was dropped.
    """

    enabled = True

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self._lock = named_lock("proxy.telemetry")
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._total = 0
        self._counts: dict[str, int] = {}

    def emit(
        self,
        code: str,
        at_ms: float,
        trace_id: str | None = None,
        query_index: int | None = None,
        **payload: Any,
    ) -> None:
        """Record one event at simulated time ``at_ms``."""
        name = EVENT_CODES.get(code)
        if name is None:
            raise ValueError(
                f"unknown event code {code!r}; pinned codes: "
                f"{sorted(EVENT_CODES)}"
            )
        event: dict[str, Any] = {
            "code": code,
            "name": name,
            "at_ms": float(at_ms),
        }
        if trace_id is not None:
            event["trace_id"] = trace_id
        if query_index is not None:
            event["query_index"] = query_index
        if payload:
            event["payload"] = payload
        with self._lock:
            self._events.append(event)
            self._total += 1
            self._counts[code] = self._counts.get(code, 0) + 1

    def recent(self, n: int | None = None) -> list[dict[str, Any]]:
        """The newest ``n`` retained events, oldest first."""
        with self._lock:
            events = [dict(event) for event in self._events]
        if n is not None and n >= 0:
            events = events[-n:] if n else []
        return events

    @property
    def total(self) -> int:
        """Events emitted over the recorder's lifetime."""
        with self._lock:
            return self._total

    def counts(self) -> dict[str, int]:
        """Lifetime emission count per event code."""
        with self._lock:
            return dict(self._counts)

    def snapshot(self) -> dict[str, Any]:
        """The whole buffer as a JSON-able dict (the wire format)."""
        with self._lock:
            return {
                "enabled": True,
                "clock": "sim-ms",
                "capacity": self.capacity,
                "total": self._total,
                "counts": dict(sorted(self._counts.items())),
                "events": [dict(event) for event in self._events],
            }


class NullEventRecorder:
    """The disabled recorder: validates nothing, stores nothing."""

    enabled = False
    capacity = 0
    total = 0

    def emit(
        self,
        code: str,
        at_ms: float,
        trace_id: str | None = None,
        query_index: int | None = None,
        **payload: Any,
    ) -> None:
        return None

    def recent(self, n: int | None = None) -> list[dict[str, Any]]:
        return []

    def counts(self) -> dict[str, int]:
        return {}

    def snapshot(self) -> dict[str, Any]:
        return {
            "enabled": False,
            "clock": "sim-ms",
            "capacity": 0,
            "total": 0,
            "counts": {},
            "events": [],
        }


#: The singleton no-op recorder instrumentation defaults to.
NULL_EVENTS = NullEventRecorder()
