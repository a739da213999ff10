"""Periodic full-cache snapshots.

A snapshot is the journal's rent collector: every N journal records
the persister writes the *entire* live entry set — each entry as the
very ``admit`` frame its journal append wrote, kept since — as one
file in the journal's own framing, in ``entry_id`` order, and replaces
the snapshot file atomically (temp file + ``os.replace``, fsync'd).
Nothing is encoded at a checkpoint.  Only after the snapshot is
durably in place is the journal truncated, so every instant in time
has a complete recovery story: either the old snapshot + old journal,
or the new snapshot + empty journal.

The snapshot is read back whole by the same frame walk as the journal
(:func:`~repro.persistence.records.walk_frames`); unlike the journal
it must be whole admit frames, so any stop of the walk, or any frame
that is not an admit, condemns the file.  The entries carry serialized region descriptions; recovery
re-admits them through the cache manager, which rebuilds whichever
cache description (array or R-tree) the restarted proxy was
configured with.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.persistence.atomic import atomic_write_bytes
from repro.persistence.errors import SnapshotFormatError
from repro.persistence.records import AdmitRecord, walk_frames


def write_snapshot(path: str | Path, frames: Iterable[bytes]) -> int:
    """Atomically replace the snapshot file with ``frames``, already
    encoded admit frames; returns the file's byte size."""
    data = b"".join(frames)
    atomic_write_bytes(path, data, durable=True)
    return len(data)


def load_snapshot(path: str | Path) -> tuple[AdmitRecord, ...] | None:
    """The snapshot's admit records; ``None`` when no snapshot exists.

    Raises :class:`SnapshotFormatError` for a file that exists but is
    not whole admit frames of this wire version — recovery treats that
    as "no snapshot" and records the diagnosis rather than propagating.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise SnapshotFormatError(f"unreadable snapshot: {exc}") from exc
    read = walk_frames(data)
    entries = []
    for record in read.records:
        if not isinstance(record, AdmitRecord):
            raise SnapshotFormatError(
                f"snapshot holds a {record.type!r} record"
            )
        entries.append(record)
    if read.stop_reason is not None:
        raise SnapshotFormatError(
            f"{read.stop_reason} snapshot frame after "
            f"{len(entries)} entries: {read.stop_detail}"
        )
    return tuple(entries)
