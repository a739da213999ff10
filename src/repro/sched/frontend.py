"""The event-driven serving frontend: queue at the proxy, not inside it.

:class:`ProxyFrontend` is how thousands of simulated clients share one
proxy.  An arrival is submitted on the event loop's time axis and
enters the admission controller's bounded accept queue; whenever a
serve slot is free the frontend dispatches the oldest queued request —
charging its queue wait to the query's ``admit.queue`` step — and
schedules a completion event after the query's simulated service time.
Turned-away work (queue full, quota, overload fast-fail, deadline
passed while queued) becomes structured ``shed`` / ``queued-timeout``
records through :meth:`~repro.core.proxy.FunctionProxy.reject`, so
every submission produces exactly one record and ``serve`` semantics
(never raises) carry over to the event-driven path.

The frontend is single-threaded by design — it lives on the event
loop's thread; the admission controller and the proxy underneath do
their own locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.admission.config import REASON_DEADLINE
from repro.admission.controller import AdmissionController, QueuedRequest
from repro.core.proxy import FunctionProxy, ProxyResponse
from repro.core.stats import QueryOutcome
from repro.locking import unshared
from repro.obs.events import EV_QUEUE_DEADLINE_DROPS
from repro.sched.loop import EventLoop


@dataclass(frozen=True)
class _Submission:
    """What travels through the accept queue for one arrival."""

    bound: Any
    on_done: Callable[[ProxyResponse], None] | None = None


@unshared("submitted", "completed", "rejected")
class ProxyFrontend:
    """Closed-loop serving through the admission queue.

    ``submit`` never raises and always leads to exactly one finished
    :class:`~repro.core.stats.QueryRecord` per arrival — immediately
    (shed) or eventually (dispatch, or deadline drop at dispatch
    time).  Completion callbacks run on the event loop.
    """

    def __init__(self, proxy: FunctionProxy, loop: EventLoop) -> None:
        if proxy.admission is None:
            raise ValueError(
                "the frontend needs an admission controller: build the "
                "proxy with admission=..."
            )
        self.proxy = proxy
        self.loop = loop
        self.controller: AdmissionController = proxy.admission
        # Telemetry and admission join the load timeline: events,
        # samples, queue stamps and the overload breaker all read
        # event time from the bundle's clock.
        proxy.obs.clock = loop
        self.submitted = 0
        self.completed = 0
        self.rejected = 0

    @property
    def templates(self) -> Any:
        """The proxy's template manager (the driver binds through it)."""
        return self.proxy.templates

    def submit(
        self,
        bound: Any,
        tenant: str = "default",
        on_done: Callable[[ProxyResponse], None] | None = None,
    ) -> None:
        """One arrival at the current event time."""
        self.submitted += 1
        submission = _Submission(bound, on_done)
        verdict = self.controller.enqueue(submission, tenant)
        if not verdict.admitted:
            response = self.proxy.reject(
                bound, verdict.reason, QueryOutcome.SHED
            )
            self.rejected += 1
            self._finish(submission, response)
        self.pump()

    def pump(self) -> None:
        """Dispatch queued work while serve slots are free."""
        while True:
            got, waited_ms, expired = self.controller.dequeue()
            if expired:
                self.proxy.obs.telemetry_event(
                    EV_QUEUE_DEADLINE_DROPS, count=len(expired)
                )
            for stale in expired:
                self._reject(
                    stale, REASON_DEADLINE, QueryOutcome.QUEUED_TIMEOUT
                )
            if got is None:
                return
            self._dispatch(got, waited_ms)

    # ----------------------------------------------------------- internal
    def _dispatch(self, request: QueuedRequest, waited_ms: float) -> None:
        submission = request.item
        response = self.proxy.serve_admitted(
            submission.bound, queue_wait_ms=waited_ms
        )
        # The slot stays busy for the query's service time on the event
        # axis; the queue wait already elapsed while it was parked.
        service_ms = max(0.0, response.record.response_ms - waited_ms)
        self.loop.after(
            service_ms, lambda: self._complete(submission, response)
        )

    def _complete(
        self, submission: _Submission, response: ProxyResponse
    ) -> None:
        self.controller.release()
        self._finish(submission, response)
        self.pump()

    def _reject(
        self,
        request: QueuedRequest,
        reason: str,
        outcome: QueryOutcome,
    ) -> None:
        submission = request.item
        waited_ms = max(0.0, self.loop.now_ms - request.enqueued_at_ms)
        response = self.proxy.reject(
            submission.bound, reason, outcome, queue_wait_ms=waited_ms
        )
        self.rejected += 1
        self._finish(submission, response)

    def _finish(
        self, submission: _Submission, response: ProxyResponse
    ) -> None:
        self.completed += 1
        if submission.on_done is not None:
            submission.on_done(response)
