"""Periodic full-cache snapshots.

A snapshot is the journal's rent collector: every N journal records
the persister serializes the *entire* live entry set — the same
payload shape as an ``admit`` record, so one codec covers both — and
replaces the snapshot file atomically (temp file + ``os.replace``,
fsync'd).  Only after the snapshot is durably in place is the journal
truncated, so every instant in time has a complete recovery story:
either the old snapshot + old journal, or the new snapshot + empty
journal.

The entry payloads carry serialized region descriptions; recovery
re-admits them through the cache manager, which rebuilds whichever
cache description (array or R-tree) the restarted proxy was
configured with.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.persistence.atomic import atomic_write_bytes
from repro.persistence.errors import SnapshotFormatError
from repro.persistence.records import WIRE_FORMAT_VERSION, AdmitRecord


@dataclass(frozen=True)
class Snapshot:
    """A full serialized cache state at one instant."""

    data_version: int | None
    ts_ms: float
    entries: tuple[AdmitRecord, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": WIRE_FORMAT_VERSION,
            "data_version": self.data_version,
            "ts_ms": self.ts_ms,
            "entries": [entry.to_payload() for entry in self.entries],
        }


def write_snapshot(path: str | Path, snapshot: Snapshot) -> int:
    """Atomically replace the snapshot file; returns its byte size."""
    text = json.dumps(snapshot.to_dict(), sort_keys=True) + "\n"
    data = text.encode("utf-8")
    atomic_write_bytes(path, data, durable=True)
    return len(data)


def load_snapshot(path: str | Path) -> Snapshot | None:
    """Read a snapshot back; ``None`` when no snapshot exists.

    Raises :class:`SnapshotFormatError` for files that exist but
    cannot be understood — recovery treats that as "no snapshot" and
    records the diagnosis rather than propagating.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise SnapshotFormatError(f"unreadable snapshot: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(f"snapshot is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SnapshotFormatError("snapshot is not a JSON object")
    if payload.get("format") != WIRE_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot format {payload.get('format')!r}"
        )
    try:
        entries = tuple(
            AdmitRecord.from_payload(entry)
            for entry in payload.get("entries", ())
        )
        return Snapshot(
            data_version=(
                None
                if payload.get("data_version") is None
                else int(payload["data_version"])
            ),
            ts_ms=float(payload.get("ts_ms", 0.0)),
            entries=entries,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(
            f"malformed snapshot entries: {exc}"
        ) from exc
