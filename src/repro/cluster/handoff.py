# concurrency: serve-path
"""Warm handoff: move one shard's cache into its ring successor.

The departing shard's cache becomes a sequence of ``admit`` records,
each tagged with the departing shard's id, handed to the successor in
memory.  Its size is that of the persistence wire format the records
would take on disk — the same ``[u32 len][u32 CRC32][payload]`` frames
the journal and snapshot use, each result a binary table
(:func:`encode_handoff`).  The successor replays them through its
normal ``CacheManager.store`` path, so its replacement policy and byte
budget apply exactly as they would under traffic, and the data-version
fence drops entries computed against an origin version the successor
no longer serves.

Two export sources exist:

* :func:`export_records` — the *live* cache of a draining shard (a
  planned departure / rebalance);
* :func:`persisted_records` — the snapshot + journal image of a shard
  whose process is gone (a crash): memory is lost, disk survives, and
  the image is what recovery would have rebuilt.

Because every exported record carries the departing shard's tag, a
record that ends up replayed by *recovery* on the wrong shard (a
copied state directory) is skipped (``entries_foreign``), while this
module's explicit :func:`replay_records` accepts the tag — the
successor's own persister re-journals each stored entry under the
successor's id.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

from repro.persistence.image import admit_records, load_image, replay_admits
from repro.persistence.records import AdmitRecord, encode_record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.proxy import FunctionProxy
    from repro.persistence.persister import CachePersister


@dataclass(frozen=True)
class HandoffReport:
    """What one warm handoff moved, dropped, and displaced."""

    source: str
    target: str
    entries: int  # records exported from the departing shard
    replayed: int  # stored into the successor's cache
    stale: int  # dropped by the data-version fence
    errors: int  # no longer bindable / malformed on replay
    rejected: int  # the successor's cache declined the store
    evicted: int  # successor entries the replay displaced
    bytes_total: int  # framed wire size of the export

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def export_records(
    proxy: "FunctionProxy", shard_id: str, now_ms: float
) -> tuple[AdmitRecord, ...]:
    """The live cache of ``proxy`` as shard-tagged admit records.

    Entries are exported in ``entry_id`` order, so the same cache
    always serializes to the same byte stream.  They carry the version
    the cache was admitted under, not the origin's current one: a shard
    that has not yet noticed a bump hands over stale rows, and the
    successor's replay must fence them as it fences a stale disk image.
    """
    return admit_records(
        proxy.cache.entries(), proxy.seen_data_version, now_ms, shard_id
    )


def persisted_records(
    persister: "CachePersister",
) -> tuple[AdmitRecord, ...]:
    """The cache image a crashed shard left on disk.

    The same snapshot-then-journal walk recovery runs (a malformed
    snapshot is treated as absent; the journal's intact prefix is
    applied): what comes back is what the shard durably held at its
    last append — the only thing a crash did not destroy.
    """
    admits = load_image(persister).admits
    return tuple(admits[entry_id] for entry_id in sorted(admits))


def encode_handoff(records: tuple[AdmitRecord, ...]) -> bytes:
    """The records as the concatenated frames a handoff file would
    hold; the router sizes each handoff (``bytes_total``) by them."""
    return b"".join(encode_record(record) for record in records)


def replay_records(
    records: tuple[AdmitRecord, ...],
    proxy: "FunctionProxy",
    source: str,
    target: str,
    bytes_total: int = 0,
) -> HandoffReport:
    """Replay exported records into ``proxy`` through ``cache.store``.

    The successor's replacement policy, byte budget, and persister all
    apply: every accepted entry is re-journaled under the successor's
    own shard id.  Entries whose recorded ``data_version`` disagrees
    with the successor origin's *current* version are fenced out, and
    an entry that no longer binds is dropped as an error — one bad
    record never aborts the handoff.
    """
    tally = replay_admits(
        records,
        proxy.cache,
        proxy.templates,
        proxy.origin_data_version(),
        accept_foreign=True,
    )
    return HandoffReport(
        source=source,
        target=target,
        entries=len(records),
        replayed=tally.restored,
        stale=tally.stale,
        errors=tally.error,
        rejected=tally.rejected,
        evicted=tally.evicted,
        bytes_total=bytes_total,
    )
