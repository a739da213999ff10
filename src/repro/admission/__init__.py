"""Admission control for the proxy under concurrent load.

The paper's proxy serves one query at a time; under the ROADMAP's
heavy-traffic north star the serve path must instead decide, per
arriving query, whether to run it now, queue it, or turn it away — and
do so without ever breaking ``serve()``'s never-raises contract.  This
package owns that decision:

* :class:`~repro.admission.config.AdmissionConfig` — the knobs: queue
  bound, inflight slots, per-tenant token-bucket quotas, and the
  overload threshold.  The queue is first in, first out; a full queue
  sheds the arrival; queued work past
  :data:`~repro.admission.config.QUEUE_DEADLINE_MS` is dropped at
  dispatch;
* :class:`~repro.admission.controller.AdmissionController` — the
  runtime gate: a bounded accept queue, token buckets, and an overload
  :class:`~repro.faults.resilience.CircuitBreaker` fed by queue-full
  sheds so sustained overflow fast-fails new arrivals for
  :data:`~repro.admission.config.OVERLOAD_COOLDOWN_MS`.  The proxy
  builds it from ``FunctionProxy(admission=AdmissionConfig(...))``,
  bound to its telemetry bundle; it reads time from the bundle's
  clock, so no caller passes it one.

Turned-away queries surface as structured ``shed`` /
``queued-timeout`` outcomes (HTTP 429/503) with full query records and
decision traces — but no cache, origin, or journal activity.
"""

from repro.admission.config import (
    OVERLOAD_COOLDOWN_MS,
    QUEUE_DEADLINE_MS,
    REASON_ADMISSION_OPEN,
    REASON_DEADLINE,
    REASON_QUEUE_FULL,
    REASON_QUOTA,
    RETRY_AFTER_SECONDS,
    AdmissionConfig,
    TenantQuota,
)
from repro.admission.controller import (
    AdmissionController,
    AdmissionVerdict,
    QueuedRequest,
    TokenBucket,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionVerdict",
    "OVERLOAD_COOLDOWN_MS",
    "QUEUE_DEADLINE_MS",
    "QueuedRequest",
    "REASON_ADMISSION_OPEN",
    "REASON_DEADLINE",
    "REASON_QUEUE_FULL",
    "REASON_QUOTA",
    "RETRY_AFTER_SECONDS",
    "TenantQuota",
    "TokenBucket",
]
