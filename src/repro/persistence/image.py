"""The cache image: one codec, one disk walk, one replay loop.

Every path that re-creates cache entries — warm restart
(:func:`~repro.persistence.recovery.recover_cache`), crash handoff and
drain (:mod:`repro.cluster.handoff`) — goes through the three steps
here, so the cache description is rebuilt by exactly one piece of code:

* :func:`admit_record` / :func:`admit_records` — a live
  :class:`~repro.core.cache.CacheEntry` as its ``admit`` wire record
  (the journal append, whose frame every later snapshot reuses, and a
  handoff export);
* :func:`load_image` — snapshot plus the journal's intact prefix,
  folded into the admit set the persister durably held;
* :func:`replay_admits` — fence, decode the result's binary table,
  re-bind, check the re-bound region *equals* the recorded one, and
  only then ``cache.store``: a stored result is usable only for
  exactly the region its record describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.obs.spans import ScopeStack
from repro.persistence.errors import SnapshotFormatError
from repro.persistence.records import (
    AdmitRecord,
    ClearRecord,
    EvictRecord,
    JournalReadResult,
    region_from_dict,
    region_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cache import CacheEntry, CacheManager
    from repro.obs.decisions import EvictionRecord
    from repro.persistence.persister import CachePersister
    from repro.templates.manager import TemplateManager


# --------------------------------------------------------------- codec
def admit_record(
    entry: "CacheEntry",
    data_version: int | None,
    ts_ms: float,
    shard: str | None,
) -> AdmitRecord:
    """``entry`` as the admit record that can rebuild it elsewhere."""
    template_id, param_items = entry.cache_key
    return AdmitRecord(
        entry_id=entry.entry_id,
        template_id=template_id,
        params=dict(param_items),
        region=region_to_dict(entry.region),
        signature=entry.signature,
        truncated=entry.truncated,
        result=entry.result.to_bytes(),
        data_version=data_version,
        ts_ms=ts_ms,
        shard=shard,
    )


def admit_records(
    entries: Iterable["CacheEntry"],
    data_version: int | None,
    ts_ms: float,
    shard: str | None,
) -> tuple[AdmitRecord, ...]:
    """A whole cache as admit records, in ``entry_id`` order — the
    same cache always serializes to the same byte stream."""
    return tuple(
        admit_record(entry, data_version, ts_ms, shard)
        for entry in sorted(entries, key=lambda e: e.entry_id)
    )


# ----------------------------------------------------------- disk walk
@dataclass(frozen=True)
class CacheImage:
    """What a persister durably held: the surviving admits plus how
    the snapshot load and the journal walk went."""

    #: Live admits keyed by the *old* entry id, in application order.
    admits: dict[int, AdmitRecord]
    #: Entries in the loaded snapshot; ``None`` when there was none.
    snapshot_entries: int | None
    snapshot_error: str
    journal: JournalReadResult


def load_image(
    persister: "CachePersister", scopes: ScopeStack | None = None
) -> CacheImage:
    """Snapshot, then the journal's intact prefix applied on top.

    A malformed snapshot is diagnosed and treated as absent; the
    journal walk stops cleanly at the first torn or CRC-failing record
    (a crash loses at most the mutations past the tear, never the
    prefix).  The ``snapshot_load`` / ``journal_replay`` stages open
    on ``scopes`` (the caller's telemetry bundle, when it has one).
    """
    if scopes is None:
        scopes = ScopeStack()
    admits: dict[int, AdmitRecord] = {}
    snapshot_error = ""
    with scopes.scope("snapshot_load"):
        try:
            snapshot = persister.load_snapshot()
        except SnapshotFormatError as exc:
            snapshot = None
            snapshot_error = str(exc)
        for record in snapshot or ():
            admits[record.entry_id] = record
    with scopes.scope("journal_replay") as replay:
        read = persister.journal.read()
        for record in read.records:
            if isinstance(record, AdmitRecord):
                admits[record.entry_id] = record
            elif isinstance(record, EvictRecord):
                admits.pop(record.entry_id, None)
            elif isinstance(record, ClearRecord):
                admits.clear()
        replay.annotate(
            records=len(read.records),
            bytes=read.bytes_replayed,
            stop=read.stop_reason or "clean",
        )
    return CacheImage(
        admits=admits,
        snapshot_entries=None if snapshot is None else len(snapshot),
        snapshot_error=snapshot_error,
        journal=read,
    )


# -------------------------------------------------------------- replay
@dataclass
class ReplayTally:
    """Every disposition of one :func:`replay_admits` pass."""

    restored: int = 0
    stale: int = 0
    foreign: int = 0
    error: int = 0
    rejected: int = 0
    evicted: int = 0
    evictions: list["EvictionRecord"] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def replay_admits(
    records: Iterable[AdmitRecord],
    cache: "CacheManager",
    templates: "TemplateManager",
    data_version: int | None,
    *,
    accept_foreign: bool,
    local_shard: str | None = None,
) -> ReplayTally:
    """Re-admit ``records`` through the normal ``cache.store`` path.

    Per record, in order: a record tagged with a shard other than
    ``local_shard`` is skipped unless ``accept_foreign`` (recovery
    skips — the ring owner serves those now; a handoff is exactly the
    movement of another shard's records); a record computed against an
    origin version other than ``data_version`` is fenced out as stale;
    the query is re-bound and must select *the same region* the record
    describes, else it is dropped as an error (template changed, or a
    malformed record) — one bad record never aborts the pass.  The
    replacement policy and byte budget apply exactly as under traffic.
    """
    from repro.relational.result import ResultTable

    tally = ReplayTally()
    for record in records:
        if (
            not accept_foreign
            and record.shard is not None
            and record.shard != local_shard
        ):
            tally.foreign += 1
            continue
        if data_version is not None and record.data_version != data_version:
            tally.stale += 1
            continue
        try:
            region = region_from_dict(record.region)
            result = ResultTable.from_bytes(record.result)
            bound = templates.bind(record.template_id, record.params)
            if bound.region != region:
                raise ValueError(
                    "re-bound region disagrees with the journaled region "
                    "(template changed across restart?)"
                )
        except Exception as exc:  # defensive: one bad entry must not abort
            tally.error += 1
            if len(tally.errors) < 8:
                tally.errors.append(
                    f"entry {record.entry_id} ({record.template_id}): {exc}"
                )
            continue
        entry, maintenance = cache.store(
            bound, result, record.signature, record.truncated
        )
        tally.evicted += maintenance.evicted_entries
        tally.evictions.extend(maintenance.evictions)
        if entry is None:
            tally.rejected += 1
        else:
            tally.restored += 1
    return tally
