"""Admission-control configuration: queue bound, slots, quotas."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

#: Queued work older than this at dispatch time is dropped with a
#: ``queued-timeout`` outcome.
QUEUE_DEADLINE_MS = 15_000.0

#: How long the open overload breaker fast-fails new arrivals
#: (``admission-open``) before a half-open probe re-tests capacity.
OVERLOAD_COOLDOWN_MS = 2_000.0

#: The ``Retry-After`` value for a turned-away query, in seconds: the
#: overload cooldown — the soonest the proxy could plausibly take new
#: work after fast-failing — rounded up to the whole seconds HTTP
#: requires.
RETRY_AFTER_SECONDS = math.ceil(OVERLOAD_COOLDOWN_MS / 1000.0)

#: Stable shed reasons (the ``failure_reason`` on rejected records and
#: the ``reason`` label on the shed metric).
REASON_QUEUE_FULL = "queue-full"
REASON_QUOTA = "quota"
REASON_ADMISSION_OPEN = "admission-open"
REASON_DEADLINE = "deadline"


@dataclass(frozen=True)
class TenantQuota:
    """A per-tenant token bucket: sustained rate plus burst headroom."""

    rate_per_s: float = 10.0
    burst: float = 20.0

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError(
                f"quota rate must be positive: {self.rate_per_s}"
            )
        if self.burst < 1:
            raise ValueError(f"quota burst must be >= 1: {self.burst}")


@dataclass(frozen=True)
class AdmissionConfig:
    """Everything the admission controller needs.

    * ``max_inflight`` — serve slots; queries beyond it wait in the
      accept queue (event-driven mode) or count as backlog
      (direct-threaded mode);
    * ``max_queue_depth`` — the accept-queue bound; an arrival beyond
      it is shed (``queue-full``), and queued work dispatches first in,
      first out;
    * ``quotas`` — per-tenant token buckets; tenants without an entry
      are unmetered;
    * ``overload_threshold`` — the overload circuit breaker: this many
      consecutive queue-full sheds open it, after which new arrivals
      fast-fail (``admission-open``) for :data:`OVERLOAD_COOLDOWN_MS`
      before a half-open probe re-tests capacity.
    """

    max_inflight: int = 8
    max_queue_depth: int = 64
    quotas: Mapping[str, TenantQuota] = field(default_factory=dict)
    overload_threshold: int = 64

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1: {self.max_inflight}"
            )
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1: {self.max_queue_depth}"
            )
        if self.overload_threshold < 1:
            raise ValueError(
                "overload threshold must be >= 1: "
                f"{self.overload_threshold}"
            )

    @property
    def capacity(self) -> int:
        """Slots plus queue: the most work the proxy ever holds."""
        return self.max_inflight + self.max_queue_depth

    def describe(self) -> dict[str, Any]:
        """The JSON-able view ``GET /admission`` reports as ``config``."""
        return {
            "max_inflight": self.max_inflight,
            "max_queue_depth": self.max_queue_depth,
            "queue_deadline_ms": QUEUE_DEADLINE_MS,
            "tenants": sorted(self.quotas),
        }
