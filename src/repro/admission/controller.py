"""The runtime admission gate: queue, quotas, shed, backpressure.

One :class:`AdmissionController` sits in front of
:class:`~repro.core.proxy.FunctionProxy.serve`.  It is used two ways:

* **direct-threaded** — concurrent ``serve()`` callers pass through
  :meth:`AdmissionController.try_admit` /
  :meth:`AdmissionController.release`: a bounded-capacity gate (slots
  plus backlog) with per-tenant token buckets and the overload
  breaker;
* **event-driven** — the :mod:`repro.sched` frontend parks arrivals in
  the bounded accept queue (:meth:`AdmissionController.enqueue`) and
  dispatches them first in, first out as slots free
  (:meth:`AdmissionController.dequeue`), dropping queued work whose
  deadline passed (``queued-timeout``).

Backpressure: every queue-full shed records a failure on an internal
:class:`~repro.faults.resilience.CircuitBreaker`; sustained overflow
opens it and new arrivals fast-fail (``admission-open``) for the
cooldown, after which a half-open probe re-tests capacity.  The
breaker's clock is the controller itself: its ``now_ms`` is the latest
caller-passed event time, so cooldowns follow the load timeline
rather than the work clock.

All mutable state is guarded by the ``proxy.admission`` named lock;
observer callbacks fire after the lock is released.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from repro.admission.config import (
    OVERLOAD_COOLDOWN_MS,
    QUEUE_DEADLINE_MS,
    REASON_ADMISSION_OPEN,
    REASON_QUEUE_FULL,
    REASON_QUOTA,
    AdmissionConfig,
    TenantQuota,
)
from repro.faults.resilience import BreakerState, CircuitBreaker
from repro.locking import guarded_by, named_lock
from repro.obs.events import BREAKER_EVENT_CODES, SHED_POLICY_EVENT_CODES


class AdmissionListener(Protocol):
    """Metrics hooks the controller drives (outside its lock)."""

    def admission_queue_depth(self, depth: int) -> None: ...

    def admission_inflight(self, count: int) -> None: ...

    def admission_quota_denied(self, tenant: str) -> None: ...

    def admission_quota_tokens(self, tenant: str, tokens: float) -> None: ...

    def admission_queue_wait(self, sim_ms: float) -> None: ...

    def admission_overload_transition(self, state: BreakerState) -> None: ...

    def telemetry_event(
        self,
        code: str,
        trace_id: str | None = None,
        query_index: int | None = None,
        **payload: Any,
    ) -> None: ...


@dataclass(frozen=True)
class AdmissionVerdict:
    """The controller's decision for one arrival."""

    admitted: bool
    reason: str = ""  # one of the REASON_* constants when not admitted


@dataclass(frozen=True)
class QueuedRequest:
    """One arrival parked in the accept queue."""

    item: Any
    enqueued_at_ms: float


@guarded_by("proxy.admission", "_tokens", "_stamp_ms")
class TokenBucket:
    """A token bucket on explicit event time (caller passes now)."""

    def __init__(self, quota: TenantQuota) -> None:
        self._lock = named_lock("proxy.admission")
        self.quota = quota
        self._tokens = float(quota.burst)
        self._stamp_ms = 0.0

    @property
    def tokens(self) -> float:
        return self._tokens

    def try_take(self, now_ms: float) -> bool:
        """Refill for the elapsed event time, then take one token."""
        with self._lock:
            elapsed = max(0.0, now_ms - self._stamp_ms)
            self._stamp_ms = max(self._stamp_ms, now_ms)
            self._tokens = min(
                float(self.quota.burst),
                self._tokens + elapsed * self.quota.rate_per_s / 1_000.0,
            )
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


@guarded_by(
    "proxy.admission",
    "_queue",
    "_now_ms",
    "_inflight",
    "_obs",
    "submitted",
    "admitted",
    "shed",
    "timeouts",
    "_shed_by_reason",
    "_quota_denials",
)
class AdmissionController:
    """The admission gate in front of the proxy's serve path."""

    def __init__(self, config: AdmissionConfig | None = None) -> None:
        self.config = config or AdmissionConfig()
        self._lock = named_lock("proxy.admission")
        self._queue: deque[QueuedRequest] = deque(
            maxlen=self.config.max_queue_depth
        )
        self._buckets = {
            tenant: TokenBucket(quota)
            for tenant, quota in self.config.quotas.items()
        }
        self._inflight = 0
        #: Event time, fast-forwarded to each caller-passed ``now_ms``:
        #: the overload breaker reads it as its clock, so breaker
        #: cooldowns run on the load timeline.
        self._now_ms = 0.0
        self._obs: AdmissionListener | None = None
        self._overload = CircuitBreaker(
            self,
            failure_threshold=self.config.overload_threshold,
            cooldown_ms=OVERLOAD_COOLDOWN_MS,
            on_state_change=self._overload_transition,
        )
        self.submitted = 0
        self.admitted = 0
        self.shed = 0
        self.timeouts = 0
        self._shed_by_reason: dict[str, int] = {}
        self._quota_denials: dict[str, int] = {}

    # ---------------------------------------------------------- binding
    def bind(self, instrumentation: AdmissionListener) -> None:
        """Attach the proxy's instrumentation: every hook, and the
        overload breaker's transitions from now on, reach it, starting
        with the CLOSED gauge.  Called once by the proxy's constructor.
        """
        with self._lock:
            self._obs = instrumentation
        instrumentation.admission_overload_transition(BreakerState.CLOSED)

    def _overload_transition(self, state: BreakerState) -> None:
        """The overload breaker's state-change callback, forwarded to
        the bound listener.

        Each transition updates the overload gauge, lands on the
        flight recorder as an EV01-03 breaker event (payload
        ``breaker="admission-overload"``), and — on open/close — marks
        the shed policy activating/deactivating (EV04/EV05).  The
        breaker may invoke this while the ``proxy.admission`` lock is
        held; ``proxy.telemetry`` is a pure sink, so the nesting is
        safe.
        """
        obs = self._obs
        if obs is None:
            return
        obs.admission_overload_transition(state)
        obs.telemetry_event(
            BREAKER_EVENT_CODES[state.value], breaker="admission-overload"
        )
        shed_code = SHED_POLICY_EVENT_CODES.get(state.value)
        if shed_code is not None:
            obs.telemetry_event(shed_code)

    # ------------------------------------------------------- direct gate
    def try_admit(self, tenant: str, now_ms: float) -> AdmissionVerdict:
        """Admission for a direct (threaded) ``serve()`` call.

        Capacity is slots plus backlog: callers beyond ``max_inflight``
        count as queued backlog even though their threads run
        immediately (the simulated clock carries the waiting).
        """
        return self._gate(tenant, now_ms, self._take_slot)

    def release(self) -> None:
        """An admitted query finished (however it ended)."""
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1
        self._notify_depth()

    # ------------------------------------------------------ queued gate
    def enqueue(
        self, item: Any, tenant: str, now_ms: float
    ) -> AdmissionVerdict:
        """Park one arrival in the accept queue; a full queue sheds it."""
        return self._gate(tenant, now_ms, lambda: self._park(item, now_ms))

    def _gate(
        self, tenant: str, now_ms: float, take: Callable[[], bool]
    ) -> AdmissionVerdict:
        """Both gates' checks, in order: quota (per-tenant, independent
        of load), then the overload breaker, then ``take`` — which
        claims room (a slot or a queue place) and says whether there
        was any — so a breaker probe always resolves against a real
        capacity test."""
        shed_reason = ""
        with self._lock:
            self.submitted += 1
            self._advance_event_time(now_ms)
            if not self._take_token(tenant, now_ms):
                shed_reason = REASON_QUOTA
            elif not self._overload.allow():
                shed_reason = REASON_ADMISSION_OPEN
            elif take():
                self._overload.record_success()
            else:
                shed_reason = REASON_QUEUE_FULL
                self._overload.record_failure()
            if shed_reason:
                self._count_shed(shed_reason)
        if shed_reason == REASON_QUOTA:
            self._notify_quota_denied(tenant)
        self._notify_depth()
        self._notify_quota(tenant)
        return AdmissionVerdict(admitted=not shed_reason, reason=shed_reason)

    def dequeue(
        self, now_ms: float
    ) -> tuple[QueuedRequest | None, float, list[QueuedRequest]]:
        """Dispatch the next queued request, if a slot is free.

        Returns ``(request, waited_ms, expired)``: ``request`` is None
        when no slot is free or the queue is empty; ``expired`` lists
        queued requests dropped at dispatch time because they waited
        past the deadline (the caller owes each a ``queued-timeout``
        record).
        """
        expired: list[QueuedRequest] = []
        got: QueuedRequest | None = None
        with self._lock:
            self._advance_event_time(now_ms)
            if self._inflight < self.config.max_inflight:
                while self._queue:
                    head = self._queue.popleft()
                    waited = now_ms - head.enqueued_at_ms
                    if waited > QUEUE_DEADLINE_MS:
                        expired.append(head)
                        self.timeouts += 1
                        continue
                    got = head
                    self._inflight += 1
                    self.admitted += 1
                    break
        waited_ms = 0.0 if got is None else now_ms - got.enqueued_at_ms
        obs = self._obs
        if obs is not None and got is not None:
            obs.admission_queue_wait(waited_ms)
        self._notify_depth()
        return got, waited_ms, expired

    # --------------------------------------------------------- lock-held
    def _advance_event_time(self, now_ms: float) -> None:
        """Fast-forward the event time to ``now_ms``."""
        self._now_ms = max(self._now_ms, now_ms)

    def _take_token(self, tenant: str, now_ms: float) -> bool:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            return True  # unmetered tenant
        taken = bucket.try_take(now_ms)
        if not taken:
            self._quota_denials[tenant] = (
                self._quota_denials.get(tenant, 0) + 1
            )
        return taken

    def _take_slot(self) -> bool:
        if self._inflight >= self.config.capacity:
            return False
        self._inflight += 1
        self.admitted += 1
        return True

    def _park(self, item: Any, now_ms: float) -> bool:
        if len(self._queue) >= self.config.max_queue_depth:
            return False
        self._queue.append(QueuedRequest(item, now_ms))
        return True

    def _count_shed(self, reason: str) -> None:
        self.shed += 1
        self._shed_by_reason[reason] = (
            self._shed_by_reason.get(reason, 0) + 1
        )

    # -------------------------------------------------------- observers
    def _notify_quota_denied(self, tenant: str) -> None:
        obs = self._obs
        if obs is not None:
            obs.admission_quota_denied(tenant)

    def _notify_depth(self) -> None:
        obs = self._obs
        if obs is not None:
            obs.admission_queue_depth(len(self._queue))
            obs.admission_inflight(self._inflight)

    def _notify_quota(self, tenant: str) -> None:
        obs = self._obs
        bucket = self._buckets.get(tenant)
        if obs is not None and bucket is not None:
            obs.admission_quota_tokens(tenant, bucket.tokens)

    # ------------------------------------------------------- monitoring
    @property
    def now_ms(self) -> float:
        """The event time: the overload breaker's clock."""
        return self._now_ms

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def overload_state(self) -> BreakerState:
        return self._overload.state

    def quota_denials(self) -> dict[str, int]:
        with self._lock:
            return dict(self._quota_denials)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able status view (the ``GET /admission`` payload)."""
        with self._lock:
            return {
                "config": {
                    "max_inflight": self.config.max_inflight,
                    "max_queue_depth": self.config.max_queue_depth,
                    "queue_deadline_ms": QUEUE_DEADLINE_MS,
                    "tenants": sorted(self._buckets),
                },
                "queue_depth": len(self._queue),
                "inflight": self._inflight,
                "submitted": self.submitted,
                "admitted": self.admitted,
                "shed": self.shed,
                "timeouts": self.timeouts,
                "shed_by_reason": dict(self._shed_by_reason),
                "quota_denials": dict(self._quota_denials),
                "quota_tokens": {
                    tenant: bucket.tokens
                    for tenant, bucket in sorted(self._buckets.items())
                },
                "overload_state": self._overload.state.value,
                "overload_opens": self._overload.opens,
            }
