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

The controller is built by the proxy, bound to the proxy's telemetry
bundle from birth, and reads time where the bundle keeps it
(``obs.clock``): the proxy's work clock on the direct path, the event
loop once a :mod:`repro.sched` frontend rebinds it.  No caller hands
it a time.

Backpressure: every queue-full shed records a failure on an internal
:class:`~repro.faults.resilience.CircuitBreaker`; sustained overflow
opens it and new arrivals fast-fail (``admission-open``) for the
cooldown, after which a half-open probe re-tests capacity.  The
breaker's clock is the controller's ``now_ms``, the bundle's clock, so
cooldowns follow the same timeline as the telemetry.

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
from repro.network.clock import Clock
from repro.obs.events import BREAKER_EVENT_CODES, SHED_POLICY_EVENT_CODES


class AdmissionListener(Protocol):
    """The telemetry bundle the controller is bound to: the clock it
    reads, and the metrics hooks it drives (outside its lock)."""

    clock: Clock

    def set_admission_queue_limit(self, limit: int | None) -> None: ...

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
    """A token bucket on event time; its controller passes the gate's
    one clock reading."""

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
    "_inflight",
    "submitted",
    "admitted",
    "shed",
    "timeouts",
    "_shed_by_reason",
    "_quota_denials",
)
class AdmissionController:
    """The admission gate in front of the proxy's serve path."""

    def __init__(
        self, config: AdmissionConfig, obs: AdmissionListener
    ) -> None:
        self.config = config
        self._lock = named_lock("proxy.admission")
        self._queue: deque[QueuedRequest] = deque(
            maxlen=self.config.max_queue_depth
        )
        self._buckets = {
            tenant: TokenBucket(quota)
            for tenant, quota in self.config.quotas.items()
        }
        self._inflight = 0
        #: Read-only after construction; its ``clock`` is read at each
        #: call, never kept, because a frontend rebinds it to the loop.
        self._obs = obs
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
        obs.admission_overload_transition(BreakerState.CLOSED)
        obs.set_admission_queue_limit(self.config.max_queue_depth)

    def _overload_transition(self, state: BreakerState) -> None:
        """The overload breaker's state-change callback, forwarded to
        the bundle.

        Each transition updates the overload gauge, lands on the
        flight recorder as an EV01-03 breaker event (payload
        ``breaker="admission-overload"``), and — on open/close — marks
        the shed policy activating/deactivating (EV04/EV05).  The
        breaker may invoke this while the ``proxy.admission`` lock is
        held; ``proxy.telemetry`` is a pure sink, so the nesting is
        safe.
        """
        obs = self._obs
        obs.admission_overload_transition(state)
        obs.telemetry_event(
            BREAKER_EVENT_CODES[state.value], breaker="admission-overload"
        )
        shed_code = SHED_POLICY_EVENT_CODES.get(state.value)
        if shed_code is not None:
            obs.telemetry_event(shed_code)

    # ------------------------------------------------------- direct gate
    def try_admit(self, tenant: str) -> AdmissionVerdict:
        """Admission for a direct (threaded) ``serve()`` call.

        Capacity is slots plus backlog: callers beyond ``max_inflight``
        count as queued backlog even though their threads run
        immediately (the simulated clock carries the waiting).
        """
        return self._gate(tenant, lambda now_ms: self._take_slot())

    def release(self) -> None:
        """An admitted query finished (however it ended)."""
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1
        self._notify_depth()

    # ------------------------------------------------------ queued gate
    def enqueue(self, item: Any, tenant: str) -> AdmissionVerdict:
        """Park one arrival in the accept queue; a full queue sheds it."""
        return self._gate(tenant, lambda now_ms: self._park(item, now_ms))

    def _gate(
        self, tenant: str, take: Callable[[float], bool]
    ) -> AdmissionVerdict:
        """Both gates' checks, in order: quota (per-tenant, independent
        of load), then the overload breaker, then ``take`` — which
        claims room (a slot or a queue place) and says whether there
        was any — so a breaker probe always resolves against a real
        capacity test.  The bucket and ``take`` share one clock
        reading."""
        now_ms = self.now_ms
        shed_reason = ""
        with self._lock:
            self.submitted += 1
            if not self._take_token(tenant, now_ms):
                shed_reason = REASON_QUOTA
            elif not self._overload.allow():
                shed_reason = REASON_ADMISSION_OPEN
            elif take(now_ms):
                self._overload.record_success()
            else:
                shed_reason = REASON_QUEUE_FULL
                self._overload.record_failure()
            if shed_reason:
                self._count_shed(shed_reason)
        if shed_reason == REASON_QUOTA:
            self._obs.admission_quota_denied(tenant)
        self._notify_depth()
        self._notify_quota(tenant)
        return AdmissionVerdict(admitted=not shed_reason, reason=shed_reason)

    def dequeue(
        self,
    ) -> tuple[QueuedRequest | None, float, list[QueuedRequest]]:
        """Dispatch the next queued request, if a slot is free.

        Returns ``(request, waited_ms, expired)``: ``request`` is None
        when no slot is free or the queue is empty; ``expired`` lists
        queued requests dropped at dispatch time because they waited
        past the deadline (the caller owes each a ``queued-timeout``
        record).
        """
        now_ms = self.now_ms
        expired: list[QueuedRequest] = []
        got: QueuedRequest | None = None
        with self._lock:
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
        if got is not None:
            self._obs.admission_queue_wait(waited_ms)
        self._notify_depth()
        return got, waited_ms, expired

    # --------------------------------------------------------- lock-held
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
    def _notify_depth(self) -> None:
        self._obs.admission_queue_depth(len(self._queue))
        self._obs.admission_inflight(self._inflight)

    def _notify_quota(self, tenant: str) -> None:
        bucket = self._buckets.get(tenant)
        if bucket is not None:
            self._obs.admission_quota_tokens(tenant, bucket.tokens)

    # ------------------------------------------------------- monitoring
    @property
    def now_ms(self) -> float:
        """The bundle's time: the overload breaker's clock."""
        return self._obs.clock.now_ms

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
                "config": self.config.describe(),
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
