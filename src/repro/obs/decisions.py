"""The cache-decision explain layer: why each query hit or missed.

The paper's central claim is that the proxy classifies every query
against the cache purely from region checks — yet spans and metrics
record only *timings*.  This module records the *reasoning*: one
:class:`DecisionTrace` per query capturing the candidate entries
considered, each region-relationship verdict with the compared bounds,
the chosen action, the remainder-query geometry, and any evictions
with the replacement policy's victim rationale.  ``GET
/explain/<query_id>`` on the proxy app serves the stored trace.

Actions have stable codes (mirroring the ``FPxxx`` diagnostic table;
pinned in DESIGN.md), so dashboards and tests can filter without
string-matching prose:

========  ===================  =========================================
Code      Action               Meaning
========  ===================  =========================================
``DA01``  exact                served from an identical cached query
``DA02``  contained            evaluated locally over a subsuming entry
``DA03``  region-contained     merged subsumed entries via the origin
``DA04``  remainder            probe + remainder over overlapping entries
``DA05``  miss                 forwarded whole (disjoint or unhandled)
``DA06``  tunnel               never considered for caching
``DA07``  degraded             cache answer served stale (origin down)
``DA08``  partial              cached portion only; remainder failed
``DA09``  failed               no answer; structured failure
``DA10``  shed                 turned away at admission, never dispatched
``DA11``  queued-timeout       queued past its deadline, never dispatched
========  ===================  =========================================

Everything here is plain data + a bounded ring buffer; the proxy's
instrumentation owns one :class:`DecisionLog` and the query processor
fills one :class:`DecisionTrace` as it works.  A trace keeps what it
was told — the (frozen) regions and the remainder query themselves —
and renders them only when someone reads it (``to_dict``), so a query
nobody explains pays for no rendering.  This module must stay
importable from anywhere below :mod:`repro.core` (it only depends on
:mod:`repro.geometry`), so the core layers can describe regions
without import cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.geometry.regions import Region
from repro.geometry.regions import region_to_dict as region_summary
from repro.locking import guarded_by, named_lock, unshared
from repro.obs.events import newest


class DecisionAction(enum.Enum):
    """The chosen per-query action of the semantic cache."""

    EXACT = "exact"
    CONTAINED = "contained"
    REGION_CONTAINED = "region-contained"
    REMAINDER = "remainder"
    MISS = "miss"
    TUNNEL = "tunnel"
    DEGRADED = "degraded"
    PARTIAL = "partial"
    FAILED = "failed"
    SHED = "shed"
    QUEUED_TIMEOUT = "queued-timeout"

    @property
    def code(self) -> str:
        return ACTION_CODES[self]


#: Stable codes, pinned by a golden test and the DESIGN.md table.
ACTION_CODES: dict[DecisionAction, str] = {
    DecisionAction.EXACT: "DA01",
    DecisionAction.CONTAINED: "DA02",
    DecisionAction.REGION_CONTAINED: "DA03",
    DecisionAction.REMAINDER: "DA04",
    DecisionAction.MISS: "DA05",
    DecisionAction.TUNNEL: "DA06",
    DecisionAction.DEGRADED: "DA07",
    DecisionAction.PARTIAL: "DA08",
    DecisionAction.FAILED: "DA09",
    DecisionAction.SHED: "DA10",
    DecisionAction.QUEUED_TIMEOUT: "DA11",
}

#: QueryStatus.value -> the action taken when the outcome was a full
#: fresh serve.  Degraded/partial/failed outcomes override (below).
_STATUS_ACTIONS: dict[str, DecisionAction] = {
    "exact": DecisionAction.EXACT,
    "contained": DecisionAction.CONTAINED,
    "region-containment": DecisionAction.REGION_CONTAINED,
    "overlap": DecisionAction.REMAINDER,
    "disjoint": DecisionAction.MISS,
    "forwarded": DecisionAction.MISS,
    "no-cache": DecisionAction.TUNNEL,
    "failed": DecisionAction.FAILED,
    "rejected": DecisionAction.SHED,
}


def action_for(status: str, outcome: str) -> DecisionAction:
    """The decision action for a (status, outcome) pair.

    Takes the enum *values* (strings), not the core enums themselves,
    so this module stays importable below :mod:`repro.core`.
    """
    if outcome == "failed":
        return DecisionAction.FAILED
    if outcome == "degraded":
        return DecisionAction.DEGRADED
    if outcome == "partial":
        return DecisionAction.PARTIAL
    if outcome == "shed":
        return DecisionAction.SHED
    if outcome == "queued-timeout":
        return DecisionAction.QUEUED_TIMEOUT
    try:
        return _STATUS_ACTIONS[status]
    except KeyError:
        raise ValueError(f"unknown query status {status!r}") from None


@dataclass(frozen=True)
class CandidateVerdict:
    """One cache entry's examination during the description check.

    ``relation`` is the region-relationship verdict (``equal`` /
    ``contains`` / ``contained`` / ``overlap`` / ``disjoint``) for
    entries that reached the geometric comparison, or ``skipped`` with
    a ``note`` explaining why (signature mismatch, truncated entry).
    """

    entry_id: int
    relation: str
    entry_region: Region
    rows: int = 0
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "entry_id": self.entry_id,
            "relation": self.relation,
            "entry_region": region_summary(self.entry_region),
            "rows": self.rows,
        }
        if self.note:
            payload["note"] = self.note
        return payload


@dataclass(frozen=True)
class EvictionRecord:
    """One eviction, with the replacement policy's victim rationale."""

    entry_id: int
    policy: str
    rationale: str
    byte_size: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "entry_id": self.entry_id,
            "policy": self.policy,
            "rationale": self.rationale,
            "byte_size": self.byte_size,
        }


@unshared(
    "candidates",
    "remainder",
    "evictions",
    "consolidated",
    "admitted",
    "notes",
    "status",
    "outcome",
    "action",
    "trace_id",
)
@dataclass
class DecisionTrace:
    """The full reasoning record of one query's cache decision.

    A trace in flight belongs to the single query (and thread) being
    served — hence the ``unshared`` registration; it becomes shared
    only once sealed and handed to :meth:`DecisionLog.record`.

    A retained trace keeps alive the regions it compared and, on an
    overlap, the remainder query (its ``geometry()`` is asked for in
    :meth:`to_dict`) — bounded by the log's capacity.
    """

    query_id: int
    template_id: str
    query_region: Region | None = None
    scheme: str = ""
    policy: Mapping[str, bool] = field(default_factory=dict)
    candidates: list[CandidateVerdict] = field(default_factory=list)
    remainder: Any = None
    evictions: list[EvictionRecord] = field(default_factory=list)
    consolidated: list[int] = field(default_factory=list)
    admitted: bool | None = None
    notes: list[str] = field(default_factory=list)
    status: str = ""
    outcome: str = ""
    action: DecisionAction | None = None
    trace_id: str | None = None

    # -------------------------------------------------------- recording
    def note(self, message: str) -> None:
        """Free-form reasoning breadcrumb (tunnel reasons, fallbacks)."""
        self.notes.append(message)

    def record_candidate(
        self,
        entry_id: int,
        relation: str,
        entry_region: Region,
        rows: int = 0,
        note: str = "",
    ) -> None:
        self.candidates.append(
            CandidateVerdict(
                entry_id=entry_id,
                relation=relation,
                entry_region=entry_region,
                rows=rows,
                note=note,
            )
        )

    def record_remainder(self, remainder: Any) -> None:
        """``remainder`` answers ``geometry()``
        (:class:`repro.core.remainder.RemainderQuery`)."""
        self.remainder = remainder

    def record_eviction(self, eviction: EvictionRecord) -> None:
        self.evictions.append(eviction)

    def record_admission(
        self, admitted: bool, consolidated: list[int] | None = None
    ) -> None:
        self.admitted = admitted
        if consolidated:
            self.consolidated.extend(consolidated)

    def finish(
        self, status: str, outcome: str, trace_id: str | None = None
    ) -> None:
        """Seal the trace with the final disposition and span link."""
        self.status = status
        self.outcome = outcome
        self.action = action_for(status, outcome)
        self.trace_id = trace_id

    # ---------------------------------------------------------- export
    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "query_id": self.query_id,
            "template_id": self.template_id,
            "action": self.action.value if self.action else "",
            "action_code": self.action.code if self.action else "",
            "status": self.status,
            "outcome": self.outcome,
            "scheme": self.scheme,
            "policy": dict(self.policy),
            "candidates": [c.to_dict() for c in self.candidates],
            "evictions": [e.to_dict() for e in self.evictions],
            "consolidated": list(self.consolidated),
            "notes": list(self.notes),
        }
        if self.query_region is not None:
            payload["query_region"] = region_summary(self.query_region)
        if self.remainder is not None:
            payload["remainder"] = self.remainder.geometry()
        if self.admitted is not None:
            payload["admitted"] = self.admitted
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        return payload


@guarded_by("proxy.decisions", "_capacity", "_traces")
class DecisionLog:
    """A bounded ring buffer of finished decision traces.

    One insertion-ordered dict by query id (``GET
    /explain/<query_id>``) that evicts its first key, so memory stays
    bounded by ``capacity`` regardless of trace length.  Mutators
    (``record`` / ``resize`` / ``clear``) take the ``proxy.decisions``
    lock; reads copy under it so the explain endpoints can render
    while queries keep recording.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        self._lock = named_lock("proxy.decisions")
        self._capacity = capacity
        self._traces: dict[int, DecisionTrace] = {}

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._traces)

    def begin(
        self,
        query_id: int,
        template_id: str,
        query_region: Region | None = None,
        scheme: str = "",
        policy: Mapping[str, bool] | None = None,
    ) -> DecisionTrace:
        """A fresh trace; it enters the ring only when ``record``-ed.

        ``policy`` is kept, not copied (``to_dict`` copies): the proxy
        hands every query the one description of its scheme.
        """
        return DecisionTrace(
            query_id, template_id, query_region, scheme, policy or {}
        )

    def record(self, trace: DecisionTrace) -> None:
        with self._lock:
            # A re-recorded id replaces its older trace, as the newest.
            self._traces.pop(trace.query_id, None)
            self._traces[trace.query_id] = trace
            self._trim()

    def resize(self, capacity: int) -> None:
        """Change the retention bound, trimming oldest traces to fit."""
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        with self._lock:
            self._capacity = capacity
            self._trim()

    def _trim(self) -> None:
        while len(self._traces) > self._capacity:
            del self._traces[next(iter(self._traces))]

    def get(self, query_id: int) -> DecisionTrace | None:
        return self._traces.get(query_id)

    def recent(self, n: int | None = None) -> list[dict[str, Any]]:
        """The most recent decisions as dicts, oldest first."""
        with self._lock:
            traces = list(self._traces.values())
        return [trace.to_dict() for trace in newest(traces, n)]

    def action_counts(self) -> dict[str, int]:
        """How many retained decisions took each action."""
        with self._lock:
            traces = list(self._traces.values())
        counts: dict[str, int] = {}
        for trace in traces:
            if trace.action is not None:
                key = trace.action.value
                counts[key] = counts.get(key, 0) + 1
        return counts

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
