"""Warm-restart recovery: snapshot + journal -> a rebuilt cache.

``recover_cache`` replays persistence state into a fresh
:class:`~repro.core.cache.CacheManager` in four phases, each under its
own stage:

1. **snapshot load** — the last full cache image, or nothing (a
   malformed snapshot is diagnosed and treated as absent, never fatal);
2. **journal replay** — walk the journal's intact record prefix and
   apply each mutation to an in-memory image keyed by the *old* entry
   ids (admit inserts, evict deletes, clear empties).  The walk stops
   cleanly at the first torn or CRC-failing record: a crash loses at
   most the mutations past the tear, never the prefix;
3. **version fencing** — drop every surviving entry whose recorded
   origin ``data_version`` does not match the origin's *current*
   version.  This is what makes recovery safe against PR 3's scheduled
   version bumps: a proxy that died before noticing a bump (or while
   the origin moved on without it) must not serve stale-versioned
   regions after restart;
4. **materialize** — re-admit survivors through the normal
   ``CacheManager.store`` path (journaling suspended), re-binding each
   query through the template manager so the cache description — array
   or R-tree, whatever the restarted proxy uses — is rebuilt from the
   serialized region descriptions.  A survivor that no longer binds
   (template changed across restart) is dropped as an error, and a
   byte-budgeted cache may evict during restore exactly as it would
   during traffic.

The phases themselves live in :mod:`repro.persistence.image`
(``load_image`` is phases 1–2, ``replay_admits`` phases 3–4), shared
with the cluster's crash handoff and drain; this module adds what only
a restart needs — the report, the stages, the metrics, the re-checkpoint.

The structured :class:`RecoveryReport` captures every disposition and
feeds ``recovery_entries_total{disposition}`` plus the
``GET /persistence`` endpoint.  Recovery never raises for damaged
state — only for programmer errors (an unbound persister).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.spans import ScopeStack
from repro.persistence.image import load_image, replay_admits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cache import CacheManager
    from repro.persistence.persister import CachePersister
    from repro.templates.manager import TemplateManager


@dataclass
class RecoveryReport:
    """What one warm restart restored, dropped, and replayed."""

    snapshot_loaded: bool = False
    snapshot_entries: int = 0
    snapshot_error: str = ""
    records_replayed: int = 0
    record_counts: dict[str, int] = field(default_factory=dict)
    bytes_replayed: int = 0
    bytes_total: int = 0
    stop_reason: str | None = None  # None | "torn" | "corrupt"
    stop_detail: str = ""
    data_version: int | None = None
    entries_restored: int = 0
    entries_stale: int = 0
    entries_foreign: int = 0
    entries_error: int = 0
    entries_rejected: int = 0
    entries_evicted: int = 0
    evictions: list[dict[str, Any]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the journal replayed to its end undamaged."""
        return self.stop_reason is None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def recover_cache(
    persister: "CachePersister",
    cache: "CacheManager",
    templates: "TemplateManager",
    obs: Any = None,
) -> RecoveryReport:
    """Rebuild ``cache`` from ``persister``'s snapshot + journal.

    Returns the structured report; also stores it on the persister
    (for ``GET /persistence``) and, when the restore changed anything,
    re-checkpoints so the damaged tail is repaired on disk.
    """
    report = RecoveryReport()
    report.data_version = persister.current_version()

    scopes = obs if obs is not None else ScopeStack()
    with scopes.scope("recovery"):
        # Phases 1+2: snapshot, then the journal's intact prefix ----------
        image = load_image(persister, scopes)
        report.snapshot_loaded = image.snapshot_entries is not None
        report.snapshot_entries = image.snapshot_entries or 0
        report.snapshot_error = image.snapshot_error
        read = image.journal
        report.records_replayed = len(read.records)
        report.bytes_replayed = read.bytes_replayed
        report.bytes_total = read.bytes_total
        report.stop_reason = read.stop_reason
        report.stop_detail = read.stop_detail
        for record in read.records:
            report.record_counts[record.type] = (
                report.record_counts.get(record.type, 0) + 1
            )
            if obs is not None:
                obs.journal_replayed(record.type)

        # Phases 3+4: fence versions, then materialize ---------------------
        with scopes.scope("materialize"):
            # Locked setters, not raw attribute writes: recovery must
            # not hold the persister lock while calling cache.store
            # (that would invert the cache -> journal lock order).
            persister.set_suspended(True)
            try:
                # Foreign-tagged records (another shard's copied
                # directory) are skipped, not re-admitted: the ring
                # owner serves them now.
                tally = replay_admits(
                    image.admits.values(),
                    cache,
                    templates,
                    report.data_version,
                    accept_foreign=False,
                    local_shard=persister.shard_id,
                )
            finally:
                persister.set_suspended(False)
        report.entries_restored = tally.restored
        report.entries_stale = tally.stale
        report.entries_foreign = tally.foreign
        report.entries_error = tally.error
        report.entries_rejected = tally.rejected
        report.entries_evicted = tally.evicted
        report.evictions = [e.to_dict() for e in tally.evictions]
        report.errors = tally.errors

    if obs is not None:
        obs.recovery_disposition("restored", report.entries_restored)
        obs.recovery_disposition("stale", report.entries_stale)
        obs.recovery_disposition("foreign", report.entries_foreign)
        obs.recovery_disposition("error", report.entries_error)
        obs.recovery_disposition("rejected", report.entries_rejected)

    persister.record_recovery(report.to_dict())
    # Repair the tail: the restored state becomes the new snapshot and
    # the (possibly damaged) journal is truncated behind it.
    persister.checkpoint()
    return report
