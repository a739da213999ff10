"""Fault injection and resilience for the function proxy.

The paper's setting — a slow origin across a WAN — silently assumed a
*reliable* origin.  This package drops that assumption:

* :mod:`repro.faults.plan` — seeded, simulated-clock-driven fault
  schedules (outage windows, slowdowns, transient errors, timeouts,
  data-version flips) and :class:`FaultSession`, the one execution of
  any plan: one seeded draw per attempt at a target (the origin or a
  shard), yielding a :class:`Fate`;
* :mod:`repro.faults.resilience` — the proxy-side answer: retry with
  capped backoff and deterministic jitter, and a circuit breaker over
  the proxy -> origin hop; while it is open the proxy keeps serving
  cached answers, marked ``degraded`` or ``partial``.  The retry and
  breaker settings are module constants.  Faults are injected there
  too: :class:`OriginGateway` draws each admitted attempt's fate
  from the installed session, so an injected failure takes the path a
  real one does;
* :mod:`repro.faults.errors` — the retryable injected errors and the
  structured terminal outcomes;
* :mod:`repro.faults.crash` — seeded crash damage for the *proxy
  itself*: once the proxy stops, a plan tears or flips the tail of its
  journal the way a kill mid-append would (see
  :mod:`repro.persistence`);
* :mod:`repro.faults.shard` — seeded shard-level fault schedules for
  the sharded tier (:mod:`repro.cluster`): crash, hang, or slow one
  shard worker mid-trace.

Everything is deterministic under a fixed seed: replaying the same
plan over the same trace yields identical query-record streams.
"""

from repro.faults.crash import CrashPlan
from repro.faults.errors import (
    FaultError,
    FaultPlanError,
    OriginQueryError,
    OriginTimeoutError,
    OriginUnavailable,
    OriginUnavailableError,
)
from repro.faults.plan import (
    Fate,
    FaultPlan,
    FaultSession,
    OutageWindow,
    SlowdownWindow,
)
from repro.faults.resilience import (
    BREAKER_STATE_VALUES,
    BreakerState,
    CircuitBreaker,
    OriginGateway,
)
from repro.faults.shard import (
    SHARD_FAULT_KINDS,
    ShardCrashPlan,
    ShardFaultWindow,
)

__all__ = [
    "BREAKER_STATE_VALUES",
    "BreakerState",
    "CircuitBreaker",
    "CrashPlan",
    "Fate",
    "FaultError",
    "FaultPlan",
    "FaultPlanError",
    "FaultSession",
    "OriginGateway",
    "OriginQueryError",
    "OriginTimeoutError",
    "OriginUnavailable",
    "OriginUnavailableError",
    "OutageWindow",
    "SHARD_FAULT_KINDS",
    "ShardCrashPlan",
    "ShardFaultWindow",
    "SlowdownWindow",
]
