"""Per-query records and trace-level statistics.

The paper's two metrics (Section 4.1):

* **response time** — measured at the browser emulator;
* **cache efficiency** — "the percentage of the result tuples that are
  served from the proxy cache to the total number of result tuples of
  the query", averaged arithmetically over the trace.  The paper notes
  this reveals utilization better than a hit ratio; both are reported.

Each record also keeps the proxy servlet's per-step timing breakdown
("the proxy servlet records timing information in each step of query
processing for the purpose of a detailed analysis") plus the *real*
wall-clock time of the cache-description check, which backs the paper's
"always under 100 milliseconds" claim.
"""

from __future__ import annotations

import enum
import statistics
from dataclasses import dataclass, field
from typing import Iterable

from repro.locking import read_only, unshared


class QueryStatus(enum.Enum):
    """How the proxy disposed of a query."""

    NO_CACHE = "no-cache"  # tunneled (NC scheme)
    EXACT = "exact"  # case (a): served from an exact match
    CONTAINED = "contained"  # case (b): evaluated locally from a superset
    REGION_CONTAINMENT = "region-containment"  # case (c) special case
    OVERLAP = "overlap"  # case (c): probe + remainder
    DISJOINT = "disjoint"  # case (d): forwarded and cached
    FORWARDED = "forwarded"  # miss under a scheme that skipped the case
    FAILED = "failed"  # origin needed but unreachable / query error
    REJECTED = "rejected"  # never dispatched: admission control turned it away


#: Statuses answered entirely from the cache.
FULL_CACHE_ANSWERS = (QueryStatus.EXACT, QueryStatus.CONTAINED)


class QueryOutcome(enum.Enum):
    """Whether and how well a query was answered.

    Orthogonal to :class:`QueryStatus` (which cache case ran): the
    outcome says what the *client* got back once the origin's health
    is taken into account.
    """

    SERVED = "served"  # a full, fresh answer
    DEGRADED = "degraded"  # full answer from cache while the origin is down
    PARTIAL = "partial"  # cached portion only; the remainder was skipped
    FAILED = "failed"  # no answer: structured failure, not an exception
    SHED = "shed"  # turned away at admission (queue full / quota / overload)
    QUEUED_TIMEOUT = "queued-timeout"  # waited past its deadline, never ran


#: Outcomes that returned result tuples to the client.
ANSWERED_OUTCOMES = (
    QueryOutcome.SERVED, QueryOutcome.DEGRADED, QueryOutcome.PARTIAL,
)


# A record is only ever written by the one thread serving its query;
# aggregate readers wait for the run to finish, hence unshared rather
# than a lock.
@unshared("response_ms", "steps_ms")
@dataclass
class QueryRecord:
    """Everything measured about one query.

    The proxy creates the record when the query is admitted and every
    step writes its facts onto it where they happen (the origin fetch:
    contact, retries, bytes); only ``index`` and ``template_id`` are
    known up front, and the fields the answer decides are filled in
    when the record is closed, just before it is handed over.
    """

    index: int
    template_id: str
    status: QueryStatus = QueryStatus.FAILED  # until a cache case decides
    response_ms: float = 0.0
    tuples_total: int = 0
    tuples_from_cache: int = 0
    result_bytes: int = 0
    origin_bytes: int = 0  # bytes shipped from the origin for this query
    contacted_origin: bool = False
    steps_ms: dict[str, float] = field(default_factory=dict)
    check_wall_ms: float = 0.0
    cache_bytes_after: int = 0
    cache_entries_after: int = 0
    outcome: QueryOutcome = QueryOutcome.SERVED
    retries: int = 0
    failure_reason: str = ""

    @property
    def answered(self) -> bool:
        """Whether the client received result tuples at all."""
        return self.outcome in ANSWERED_OUTCOMES

    @property
    def hit(self) -> bool:
        """Whether the cache answered the query without the origin; a
        shed or queued-timeout query answered nothing, so is no hit."""
        return self.answered and not self.contacted_origin

    def to_dict(self, include_wall: bool = True) -> dict:
        """A JSON-able view of the record.

        ``include_wall=False`` drops the real-wall-clock field, leaving
        only simulated quantities — the canonical form the determinism
        tests compare byte-for-byte across runs.
        """
        data = {
            "index": self.index,
            "template_id": self.template_id,
            "status": self.status.value,
            "outcome": self.outcome.value,
            "retries": self.retries,
            "failure_reason": self.failure_reason,
            "response_ms": self.response_ms,
            "tuples_total": self.tuples_total,
            "tuples_from_cache": self.tuples_from_cache,
            "result_bytes": self.result_bytes,
            "origin_bytes": self.origin_bytes,
            "contacted_origin": self.contacted_origin,
            "steps_ms": dict(self.steps_ms),
            "cache_bytes_after": self.cache_bytes_after,
            "cache_entries_after": self.cache_entries_after,
        }
        if include_wall:
            data["check_wall_ms"] = self.check_wall_ms
        return data

    @property
    def cache_efficiency(self) -> float:
        """Fraction of this query's result tuples served from cache.

        An empty result counts as fully served when the cache alone
        answered it and as unserved when the origin had to be asked —
        the boundary case the paper's definition leaves open.
        """
        if self.tuples_total == 0:
            return 0.0 if self.contacted_origin else 1.0
        return self.tuples_from_cache / self.tuples_total


# ``records`` is bound once; ``add``, its only mutator, is one
# ``list.append``, atomic under the GIL, so no lock guards it.  The
# aggregates read the list as it stands: they are monitoring output,
# not control flow.
@read_only("records")
class TraceStats:
    """Aggregates over a sequence of query records."""

    def __init__(self, records: Iterable[QueryRecord] | None = None) -> None:
        self.records: list[QueryRecord] = list(records or [])

    def add(self, record: QueryRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # --------------------------------------------------------- headline
    @property
    def average_response_ms(self) -> float:
        if not self.records:
            return 0.0
        return statistics.fmean(r.response_ms for r in self.records)

    @property
    def average_cache_efficiency(self) -> float:
        if not self.records:
            return 0.0
        return statistics.fmean(r.cache_efficiency for r in self.records)

    @property
    def hit_ratio(self) -> float:
        """Fraction of queries answered without contacting the origin."""
        if not self.records:
            return 0.0
        hits = sum(1 for r in self.records if r.hit)
        return hits / len(self.records)

    @property
    def answered_fraction(self) -> float:
        """Fraction of queries that returned tuples (served, degraded,
        or partial) — the availability headline under origin faults."""
        if not self.records:
            return 0.0
        answered = sum(1 for r in self.records if r.answered)
        return answered / len(self.records)

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.records)

    def outcome_fractions(self) -> dict[QueryOutcome, float]:
        counts: dict[QueryOutcome, int] = {}
        for record in self.records:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        total = len(self.records) or 1
        return {outcome: count / total for outcome, count in counts.items()}

    def outcome_counts(self) -> dict[QueryOutcome, int]:
        counts: dict[QueryOutcome, int] = {}
        for record in self.records:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts

    def status_fractions(self) -> dict[QueryStatus, float]:
        counts: dict[QueryStatus, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        total = len(self.records) or 1
        return {status: count / total for status, count in counts.items()}

    def response_percentile(self, fraction: float) -> float:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"percentile fraction out of range: {fraction}")
        if not self.records:
            return 0.0
        ordered = sorted(r.response_ms for r in self.records)
        position = min(
            len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1)))
        )
        return ordered[position]

    # ------------------------------------------------------- breakdowns
    def average_step_ms(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for record in self.records:
            for step, value in record.steps_ms.items():
                totals[step] = totals.get(step, 0.0) + value
        count = len(self.records) or 1
        return {step: value / count for step, value in totals.items()}

    def max_check_wall_ms(self) -> float:
        if not self.records:
            return 0.0
        return max(r.check_wall_ms for r in self.records)

    def check_wall_percentile(self, fraction: float) -> float:
        """Percentile of the *real* description-check wall clock,
        over the queries that actually ran a check."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"percentile fraction out of range: {fraction}")
        checked = sorted(
            r.check_wall_ms for r in self.records if "check" in r.steps_ms
        )
        if not checked:
            return 0.0
        position = min(
            len(checked) - 1, max(0, round(fraction * (len(checked) - 1)))
        )
        return checked[position]

    def check_wall_summary(self) -> dict[str, float]:
        """p50/p95/max of the description-check wall clock — the
        figures backing the paper's "always under 100 ms" claim."""
        return {
            "p50": self.check_wall_percentile(0.50),
            "p95": self.check_wall_percentile(0.95),
            "max": self.max_check_wall_ms(),
        }
