"""A multi-tenant closed-loop client population on the event loop.

The open-loop :class:`~repro.workload.rbe.BrowserEmulator` replays a
trace one query at a time; saturation experiments need *closed-loop*
clients — each submits one query, waits for its answer, thinks, and
submits the next.  Under overload a closed-loop population naturally
throttles itself to the server's pace, which is exactly the regime
where admission control and shed policies matter.

:class:`ClosedLoopDriver` places ``n_clients`` such clients on one
:class:`~repro.sched.loop.EventLoop`, all sharing one frontend — a
single-proxy :class:`~repro.sched.frontend.ProxyFrontend` or the
sharded tier's :class:`~repro.cluster.frontend.ClusterFrontend`; any
object with ``loop``, ``templates``, and ``submit`` (the same
signature) drives the same way.  Determinism: starts are
staggered deterministically across the think window, think jitter is
drawn from a seeded :class:`random.Random`, and every client walks the
shared trace at its own offset — same seed, same curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Any

from repro.core.stats import QueryOutcome, TraceStats
from repro.sched.loop import EventLoop
from repro.workload.trace import Trace


@dataclass(frozen=True)
class ClosedLoopConfig:
    """The client population and its pacing."""

    n_clients: int = 100
    #: Queries each client completes before retiring.
    queries_per_client: int = 4
    #: Mean pause between a response and the next submission.
    think_time_ms: float = 4_000.0
    #: Uniform jitter fraction applied to each think pause.
    think_jitter: float = 0.25
    seed: int = 339
    #: Tenant names assigned round-robin across clients.
    tenants: tuple[str, ...] = ("default",)

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError(f"need at least one client: {self.n_clients}")
        if self.queries_per_client < 1:
            raise ValueError(
                "each client needs at least one query: "
                f"{self.queries_per_client}"
            )
        if self.think_time_ms < 0:
            raise ValueError(f"negative think time: {self.think_time_ms}")
        if not 0.0 <= self.think_jitter <= 1.0:
            raise ValueError(
                f"think jitter must be in [0, 1]: {self.think_jitter}"
            )
        if not self.tenants:
            raise ValueError("need at least one tenant name")


@dataclass
class _Client:
    """One closed-loop client's progress."""

    name: str
    tenant: str
    cursor: int
    remaining: int
    rng: Random
    outcomes: list[QueryOutcome] = field(default_factory=list)


class ClosedLoopDriver:
    """Runs a closed-loop population to completion on the event loop."""

    def __init__(
        self,
        frontend: Any,  # ProxyFrontend or ClusterFrontend (duck-typed)
        trace: Trace,
        config: ClosedLoopConfig | None = None,
    ) -> None:
        if len(trace) == 0:
            raise ValueError("cannot drive an empty trace")
        self.frontend = frontend
        self.trace = trace
        self.config = config or ClosedLoopConfig()
        self.stats = TraceStats()
        self._clients: list[_Client] = []

    @property
    def loop(self) -> EventLoop:
        return self.frontend.loop

    def run(self, until_ms: float | None = None) -> TraceStats:
        """Drive every client to completion; returns the run's stats.

        ``until_ms`` bounds the event-time horizon (clients still
        mid-flight simply stop submitting).  Statistics cover every
        record produced — served, shed, and timed out alike.
        """
        config = self.config
        rng = Random(config.seed)
        # Stagger starts across one think window so the first wave is
        # not a single synchronized spike (unless think time is zero).
        window = max(config.think_time_ms, 1.0)
        for index in range(config.n_clients):
            client = _Client(
                name=f"client-{index}",
                tenant=config.tenants[index % len(config.tenants)],
                cursor=(index * 7919) % len(self.trace),
                remaining=config.queries_per_client,
                rng=Random(rng.randrange(2**31)),
            )
            self._clients.append(client)
            start_ms = (index / config.n_clients) * window
            self.loop.at(start_ms, self._submitter(client))
        self.loop.run(until_ms=until_ms)
        return self.stats

    # ----------------------------------------------------------- internal
    def _submitter(self, client: _Client):
        def submit() -> None:
            query = self.trace[client.cursor % len(self.trace)]
            client.cursor += 1
            bound = self.frontend.templates.bind(
                query.template_id, query.param_dict()
            )
            self.frontend.submit(
                bound,
                tenant=client.tenant,
                on_done=lambda response: self._on_done(client, response),
            )

        return submit

    def _on_done(self, client: _Client, response) -> None:
        record = response.record
        client.outcomes.append(record.outcome)
        self.stats.add(record)
        client.remaining -= 1
        if client.remaining <= 0:
            return
        pause = self.config.think_time_ms
        if pause and self.config.think_jitter:
            spread = self.config.think_jitter
            pause *= 1.0 + spread * (2.0 * client.rng.random() - 1.0)
        self.loop.after(pause, self._submitter(client))

    # --------------------------------------------------------- reporting
    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for client in self._clients:
            for outcome in client.outcomes:
                counts[outcome.value] = counts.get(outcome.value, 0) + 1
        return counts
