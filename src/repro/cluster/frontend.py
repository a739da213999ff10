# concurrency: serve-path
"""The event-driven front door of the sharded tier.

:class:`ClusterFrontend` is the multi-shard sibling of
:class:`~repro.sched.frontend.ProxyFrontend`: one
:class:`~repro.sched.loop.EventLoop` carries every shard's queue and
completion events, so the whole tier advances on a single deterministic
time axis.  An arrival is routed first (the router's fault schedule and
health verdicts apply at *submit* time), then handed to the chosen
shard's own frontend — each shard keeps its own admission controller,
so per-shard backpressure works exactly as it does on a single proxy.
Arrivals no shard can take resolve through the router's tunnel-or-shed
path and complete on the loop after their simulated response time, so
closed-loop clients always get their completion callback and keep
submitting.

The frontend is single-threaded by design — it lives on the event
loop's thread; the shards underneath do their own locking.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cluster.router import RouteDecision, ShardRouter
from repro.core.proxy import ProxyResponse
from repro.core.stats import QueryOutcome
from repro.locking import unshared
from repro.sched.frontend import ProxyFrontend
from repro.sched.loop import EventLoop

#: Outcomes the frontend counts as turned away rather than completed.
_REJECT_OUTCOMES = (QueryOutcome.SHED, QueryOutcome.QUEUED_TIMEOUT)


@unshared("submitted", "completed", "rejected")
class ClusterFrontend:
    """Closed-loop serving through a shard router on one event loop.

    Construction builds one :class:`ProxyFrontend` per shard (each
    shard proxy must carry its own admission controller) and rebinds
    the router's clock to the loop, so routing decisions, fault
    windows, and telemetry all read event time.
    """

    def __init__(self, router: ShardRouter, loop: EventLoop) -> None:
        self.router = router
        self.loop = loop
        router.clock = loop
        self._shard_frontends: dict[str, ProxyFrontend] = {
            shard_id: ProxyFrontend(router.shard(shard_id).proxy, loop)
            for shard_id in router.shard_ids
        }
        self.submitted = 0
        self.completed = 0
        self.rejected = 0

    @property
    def templates(self) -> Any:
        """The tier's template manager (shared by every shard)."""
        return self.router.shard(self.router.shard_ids[0]).proxy.templates

    def submit(
        self,
        bound: Any,
        tenant: str = "default",
        on_done: Callable[[ProxyResponse], None] | None = None,
    ) -> RouteDecision:
        """One arrival at the current event time; returns its route.

        Never raises: a routed arrival goes through the shard's
        admission queue, an unrouteable one resolves to the tunnel or
        a structured shed and completes on the loop after its
        simulated response time.
        """
        self.router.check_faults()
        # One health verdict per arrival, read by the route and by the
        # telemetry sample alike (as ``serve_routed`` does).
        statuses = self.router.shard_statuses()
        decision = self.router.route(bound, statuses)
        self.submitted += 1

        def finish(response: ProxyResponse) -> None:
            if response.record.outcome in _REJECT_OUTCOMES:
                self.rejected += 1
            else:
                self.completed += 1
            if on_done is not None:
                on_done(response)

        if decision.dispatched is not None:
            self._shard_frontends[decision.dispatched].submit(
                bound, tenant=tenant, on_done=finish
            )
        else:
            response = self.router.undispatched_response(bound, decision)
            self.loop.after(
                response.record.response_ms, lambda: finish(response)
            )
        self.router.sample_telemetry(statuses)
        return decision
