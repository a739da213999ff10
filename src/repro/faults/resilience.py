"""Resilience for the proxy -> origin hop: retry and breaker.

Two cooperating mechanisms, both driven by the proxy's simulated clock:

* retry — up to :data:`MAX_ATTEMPTS` attempts with capped exponential
  backoff (:func:`backoff_ms`, seeded jitter) and a per-attempt
  timeout.  Every wait is *charged* in simulated ms through the query
  observation, so retries show up in response times exactly like real
  waits would.
* :class:`CircuitBreaker` — the classic closed / open / half-open
  state machine guarding the hop.  ``failure_threshold`` consecutive
  failures open it; after ``cooldown_ms`` of simulated time a single
  half-open probe decides between closing and re-opening.

What the proxy serves while the origin is unreachable is fixed: full
answers from cache marked ``degraded``, the cached portion of an
overlap query marked ``partial``, and a structured ``failed`` outcome
for everything else (see :mod:`repro.core.proxy`).

:class:`OriginGateway` ties the two together around a single origin
call and is the *only* path the proxy uses to reach the origin — which
makes it the place a seeded :class:`~repro.faults.plan.FaultPlan`
bites: with a session installed, each attempt the breaker admits draws
its fate there and fails, or runs slowed, accordingly.
"""

from __future__ import annotations

import enum
from random import Random
from typing import Callable, Protocol

from repro.faults.errors import (
    OriginQueryError,
    OriginTimeoutError,
    OriginUnavailable,
    OriginUnavailableError,
)
from repro.faults.plan import ORIGIN, Fate, FaultSession
from repro.locking import guarded_by, named_lock
from repro.network.clock import Clock
from repro.relational.errors import RelationalError
from repro.server.origin import OriginResponse
from repro.sqlparser.errors import ParseError


#: Retry: attempts per origin request, the capped exponential backoff
#: between them (jitter drawn from the gateway's seeded rng), and what
#: one hung attempt costs in simulated ms.
MAX_ATTEMPTS = 3
BASE_BACKOFF_MS = 200.0
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF_MS = 5_000.0
JITTER_FRACTION = 0.2
ATTEMPT_TIMEOUT_MS = 10_000.0

#: The origin breaker: consecutive failures that open it, and the
#: simulated cooldown before a half-open probe.
BREAKER_FAILURE_THRESHOLD = 5
BREAKER_COOLDOWN_MS = 30_000.0


def backoff_ms(retry_index: int, rng: Random) -> float:
    """Simulated wait before retry ``retry_index`` (0-based).

    Jitter is drawn from the gateway's seeded rng, so the same seed
    yields the same waits — determinism over realism.
    """
    base = min(
        MAX_BACKOFF_MS, BASE_BACKOFF_MS * BACKOFF_MULTIPLIER**retry_index
    )
    return base * (1.0 + JITTER_FRACTION * rng.random())


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: Gauge encoding of breaker states (the ``breaker_state`` metric).
BREAKER_STATE_VALUES: dict[BreakerState, int] = {
    BreakerState.CLOSED: 0,
    BreakerState.HALF_OPEN: 1,
    BreakerState.OPEN: 2,
}


@guarded_by(
    "proxy.admission",
    "_state",
    "_consecutive_failures",
    "_opened_at_ms",
    "_probe_in_flight",
    "opens",
)
class CircuitBreaker:
    """Closed / open / half-open over the simulated clock.

    Thread-safe: all state moves under the ``proxy.admission`` lock,
    and in half-open exactly **one** probe is in flight at a time —
    ``allow()`` admits the first caller after the cooldown and refuses
    the rest until that probe resolves via ``record_success`` /
    ``record_failure``.  State-change callbacks fire *after* the lock
    is released, so a listener may take its own locks without creating
    an acquisition edge under ``proxy.admission``.
    """

    def __init__(
        self,
        clock: Clock,
        failure_threshold: int = BREAKER_FAILURE_THRESHOLD,
        cooldown_ms: float = BREAKER_COOLDOWN_MS,
        on_state_change: Callable[[BreakerState], None] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure threshold must be >= 1: {failure_threshold}"
            )
        if cooldown_ms <= 0:
            raise ValueError(f"cooldown must be positive: {cooldown_ms}")
        self._lock = named_lock("proxy.admission")
        #: The proxy's work clock, or the admission controller, whose
        #: ``now_ms`` reads its telemetry bundle's clock.
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at_ms = 0.0
        self._probe_in_flight = False
        self._on_state_change = on_state_change
        self.opens = 0  # lifetime count of CLOSED/HALF_OPEN -> OPEN

    @property
    def state(self) -> BreakerState:
        return self._state

    def _transition(self, state: BreakerState) -> BreakerState | None:
        """Move to ``state`` (lock held by the caller); returns the new
        state when it changed so the caller can notify after release."""
        if state is self._state:
            return None
        self._state = state
        return state

    def _notify(self, changed: BreakerState | None) -> None:
        if changed is not None and self._on_state_change is not None:
            self._on_state_change(changed)

    def allow(self) -> bool:
        """Whether an origin attempt may proceed right now.

        An open breaker whose cooldown elapsed moves to half-open and
        admits exactly one probe attempt; concurrent callers are
        refused until that probe resolves.
        """
        changed: BreakerState | None = None
        admitted = True
        with self._lock:
            if self._state is BreakerState.OPEN:
                elapsed = self.clock.now_ms - self._opened_at_ms
                if elapsed < self.cooldown_ms:
                    admitted = False
                else:
                    changed = self._transition(BreakerState.HALF_OPEN)
            if admitted and self._state is BreakerState.HALF_OPEN:
                if self._probe_in_flight:
                    admitted = False
                else:
                    self._probe_in_flight = True
        self._notify(changed)
        return admitted

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            changed = self._transition(BreakerState.CLOSED)
        self._notify(changed)

    def record_failure(self) -> None:
        changed: BreakerState | None = None
        with self._lock:
            self._consecutive_failures += 1
            self._probe_in_flight = False
            if (
                self._state is BreakerState.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold
            ):
                if self._state is not BreakerState.OPEN:
                    self.opens += 1
                self._opened_at_ms = self.clock.now_ms
                changed = self._transition(BreakerState.OPEN)
        self._notify(changed)


class ChargeSink(Protocol):
    """Where the gateway charges simulated time (a query observation)."""

    def charge(self, step: str, sim_ms: float) -> None: ...


class GatewayListener(Protocol):
    """Metrics hook: one call per retry, one per terminal failure."""

    def origin_retry(self) -> None: ...

    def origin_failure(self, reason: str) -> None: ...


class OriginGateway:
    """The one resilient path from the proxy to the origin.

    ``call`` runs an origin thunk with up to :data:`MAX_ATTEMPTS`
    attempts, the breaker consulted before every one.  Failed attempts
    charge their simulated cost (a zero-byte round trip for fast
    failures, the full per-attempt timeout for hangs) plus the backoff
    wait, so the query's response time reflects the struggle.  The
    backoff jitter comes from an rng seeded with 0.

    ``faults`` is the installed fault schedule, or ``None``: each
    admitted attempt then makes the session's one draw at the
    breaker's current time, raises the injected outage, timeout or
    transient error itself, and scales the server time by the
    slowdown active at that instant.
    """

    def __init__(
        self,
        breaker: CircuitBreaker,
        failure_rtt_ms: Callable[[], float],
        listener: GatewayListener | None = None,
    ) -> None:
        self.breaker = breaker
        self._rng = Random(0)
        self._failure_rtt_ms = failure_rtt_ms
        self._listener = listener
        self.faults: FaultSession | None = None

    def slowdown(self) -> float:
        """The origin hop's slowdown factor at the breaker's now."""
        faults = self.faults
        if faults is None:
            return 1.0
        return faults.slowdown(ORIGIN, self.breaker.clock.now_ms)

    def call(
        self,
        fn: Callable[[], OriginResponse],
        sink: ChargeSink,
    ) -> tuple[OriginResponse, int]:
        """Run one origin request; returns ``(response, retries)``.

        Raises :class:`OriginUnavailable` when the breaker refuses the
        hop or every attempt failed, and :class:`OriginQueryError`
        when the origin answered with a non-retryable query error.
        """
        retries = 0
        last_reason = "unreachable"
        for attempt in range(MAX_ATTEMPTS):
            if not self.breaker.allow():
                self._fail("breaker-open")
                raise OriginUnavailable("breaker-open", retries)
            try:
                response = self._attempt(fn)
            except OriginTimeoutError:
                self.breaker.record_failure()
                sink.charge("origin", ATTEMPT_TIMEOUT_MS)
                last_reason = "timeout"
            except OriginUnavailableError as exc:
                self.breaker.record_failure()
                sink.charge("transfer", self._failure_rtt_ms())
                last_reason = exc.reason
            except (ParseError, RelationalError) as exc:
                # The origin is alive and answered; the query is bad.
                self.breaker.record_success()
                raise OriginQueryError(str(exc), retries) from exc
            else:
                self.breaker.record_success()
                return response, retries
            if attempt + 1 < MAX_ATTEMPTS:
                retries += 1
                if self._listener is not None:
                    self._listener.origin_retry()
                sink.charge("backoff", backoff_ms(attempt, self._rng))
        self._fail(last_reason)
        raise OriginUnavailable(last_reason, retries)

    def _attempt(self, fn: Callable[[], OriginResponse]) -> OriginResponse:
        """One attempt, under the fault schedule's draw when one is
        installed: an outage or transient fate raises with the fate
        as its reason, a timeout fate raises the timeout."""
        faults = self.faults
        if faults is None:
            return fn()
        fate, slowdown = faults.attempt(ORIGIN, self.breaker.clock.now_ms)
        if fate is Fate.TIMEOUT:
            raise OriginTimeoutError()
        if fate is not Fate.NONE:
            raise OriginUnavailableError(f"injected {fate.value}", fate.value)
        response = fn()
        if slowdown > 1.0:
            response = OriginResponse(
                response.result, response.server_ms * slowdown
            )
        return response

    def _fail(self, reason: str) -> None:
        if self._listener is not None:
            self._listener.origin_failure(reason)
