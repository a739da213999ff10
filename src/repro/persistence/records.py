"""Journal records and their wire format.

One journal record describes one cache mutation.  Three types exist
(the DESIGN.md "Journal record wire format" table pins this contract):

* ``admit`` — a query result entered the cache.  Carries everything
  recovery needs to rebuild the entry without the origin: the entry
  id, the producing template id and parameter bindings, the region in
  serialized form, the residual-predicate signature, the truncated
  flag, the result as typed JSON rows (``ResultTable.to_payload``),
  the origin ``data_version`` the entry was admitted under, and the
  simulated-clock timestamp.
* ``evict`` — an entry left the cache, with the reason (``evict`` from
  the replacement policy, ``consolidate`` from region-containment
  maintenance, ``replace`` when an identical query re-raced in).
* ``clear`` — the whole cache was flushed (origin data-version change).
  Carries the data version the cache moves on to.

Framing
-------
Each record is length-prefixed and checksummed::

    [u32 payload length (LE)] [u32 CRC32 of payload (LE)] [payload]

The payload is canonical JSON (sorted keys, UTF-8).  A reader walks
frames until the file ends; a header or payload cut short is a *torn*
record, a checksum mismatch is a *corrupt* record, and either one
terminates replay cleanly at the last good record — exactly the
crash-consistency contract an append-only journal buys.  The journal,
the snapshot and a handoff file are all such frames.

Region codec
------------
Only the three shapes the cache description stores (hyperrectangles,
hyperspheres, convex polytopes) are serializable; remainder-only
shapes (difference/union) never reach the journal.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.geometry import regions
from repro.geometry.regions import DifferenceRegion, GeometryError, Region
from repro.persistence.errors import PersistenceError

#: Bump when the payload schema changes incompatibly; readers refuse
#: records from the future instead of misinterpreting them.
WIRE_FORMAT_VERSION = 2

_HEADER = struct.Struct("<II")

#: The frame header's size in bytes (length prefix + CRC32).
HEADER_SIZE = _HEADER.size


# ------------------------------------------------------------- regions
# The journal stores a region in its one JSON form
# (:mod:`repro.geometry.regions`), and refuses remainder-only shapes,
# which by construction never reach it, in either direction.
def _refuse_remainder(region: Region) -> None:
    if isinstance(region, DifferenceRegion):
        raise PersistenceError(
            f"region shape {type(region).__name__} is not "
            "journal-serializable"
        )


def region_to_dict(region: Region) -> dict[str, Any]:
    """A cacheable region's journal form."""
    _refuse_remainder(region)
    return regions.region_to_dict(region)


def region_from_dict(payload: Mapping[str, Any]) -> Region:
    """Rebuild a cacheable region from its journal form."""
    try:
        region = regions.region_from_dict(payload)
    except GeometryError as exc:
        raise PersistenceError(str(exc)) from exc
    _refuse_remainder(region)
    return region


# ------------------------------------------------------------- records
@dataclass(frozen=True)
class AdmitRecord:
    """A query result entered the cache."""

    entry_id: int
    template_id: str
    params: dict[str, Any]
    region: dict[str, Any]
    signature: str
    truncated: bool
    #: The result as ``ResultTable.to_payload`` gives it; decoded (and
    #: checked) only when the entry is replayed.
    result: dict[str, Any]
    data_version: int | None
    ts_ms: float
    #: The shard worker that admitted the entry; ``None`` on a
    #: single-proxy deployment, and then omitted from the payload.
    shard: str | None = None

    type = "admit"

    def to_payload(self) -> dict[str, Any]:
        payload = {
            "type": self.type,
            "v": WIRE_FORMAT_VERSION,
            "entry_id": self.entry_id,
            "template_id": self.template_id,
            "params": self.params,
            "region": self.region,
            "signature": self.signature,
            "truncated": self.truncated,
            "result": self.result,
            "data_version": self.data_version,
            "ts_ms": self.ts_ms,
        }
        if self.shard is not None:
            payload["shard"] = self.shard
        return payload

    @staticmethod
    def from_payload(payload: Mapping[str, Any]) -> "AdmitRecord":
        return AdmitRecord(
            entry_id=int(payload["entry_id"]),
            template_id=str(payload["template_id"]),
            params=dict(payload["params"]),
            region=dict(payload["region"]),
            signature=str(payload["signature"]),
            truncated=bool(payload["truncated"]),
            result=payload["result"],
            data_version=(
                None
                if payload["data_version"] is None
                else int(payload["data_version"])
            ),
            ts_ms=float(payload["ts_ms"]),
            shard=(
                None
                if payload.get("shard") is None
                else str(payload["shard"])
            ),
        )


@dataclass(frozen=True)
class EvictRecord:
    """An entry left the cache."""

    entry_id: int
    reason: str  # "evict" | "consolidate" | "replace"
    data_version: int | None
    ts_ms: float

    type = "evict"

    def to_payload(self) -> dict[str, Any]:
        return {
            "type": self.type,
            "v": WIRE_FORMAT_VERSION,
            "entry_id": self.entry_id,
            "reason": self.reason,
            "data_version": self.data_version,
            "ts_ms": self.ts_ms,
        }

    @staticmethod
    def from_payload(payload: Mapping[str, Any]) -> "EvictRecord":
        return EvictRecord(
            entry_id=int(payload["entry_id"]),
            reason=str(payload["reason"]),
            data_version=(
                None
                if payload["data_version"] is None
                else int(payload["data_version"])
            ),
            ts_ms=float(payload["ts_ms"]),
        )


@dataclass(frozen=True)
class ClearRecord:
    """The whole cache was flushed (origin data-version change)."""

    data_version: int | None
    removed: int
    ts_ms: float

    type = "clear"

    def to_payload(self) -> dict[str, Any]:
        return {
            "type": self.type,
            "v": WIRE_FORMAT_VERSION,
            "data_version": self.data_version,
            "removed": self.removed,
            "ts_ms": self.ts_ms,
        }

    @staticmethod
    def from_payload(payload: Mapping[str, Any]) -> "ClearRecord":
        return ClearRecord(
            data_version=(
                None
                if payload["data_version"] is None
                else int(payload["data_version"])
            ),
            removed=int(payload["removed"]),
            ts_ms=float(payload["ts_ms"]),
        )


JournalRecord = AdmitRecord | EvictRecord | ClearRecord

_PARSERS = {
    "admit": AdmitRecord.from_payload,
    "evict": EvictRecord.from_payload,
    "clear": ClearRecord.from_payload,
}


# ------------------------------------------------------------- framing
def encode_record(record: JournalRecord) -> bytes:
    """One framed record: header (length + CRC32) followed by payload."""
    payload = json.dumps(
        record.to_payload(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def parse_payload(payload: bytes) -> JournalRecord:
    """Decode one checksum-verified payload into its record."""
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"unparseable record payload: {exc}") from exc
    if not isinstance(decoded, dict):
        raise PersistenceError("record payload is not a JSON object")
    version = decoded.get("v")
    if version != WIRE_FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported wire format version {version!r}"
        )
    parser = _PARSERS.get(decoded.get("type", ""))
    if parser is None:
        raise PersistenceError(
            f"unknown record type {decoded.get('type')!r}"
        )
    try:
        return parser(decoded)
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed record fields: {exc}") from exc


@dataclass(frozen=True)
class FrameOutcome:
    """One step of the frame walk: a record, or why the walk stopped.

    ``stop_reason`` is ``None`` for good frames, ``"torn"`` when the
    file ends mid-frame (the classic torn write), and ``"corrupt"``
    when the frame is complete but fails its checksum or cannot be
    decoded.  ``consumed`` is the frame's total size for good frames
    and 0 otherwise (a stopper contributes no replayed bytes).
    """

    record: JournalRecord | None
    consumed: int
    stop_reason: str | None = None
    detail: str = ""


def iter_frames(data: bytes, offset: int = 0) -> Iterator[FrameOutcome]:
    """Walk frames in ``data``; the final item may be a stopper."""
    position = offset
    total = len(data)
    while position < total:
        if total - position < HEADER_SIZE:
            yield FrameOutcome(
                None, 0, "torn",
                f"{total - position} trailing bytes, header needs "
                f"{HEADER_SIZE}",
            )
            return
        length, crc = _HEADER.unpack_from(data, position)
        start = position + HEADER_SIZE
        end = start + length
        if end > total:
            yield FrameOutcome(
                None, 0, "torn",
                f"payload cut short: {total - start} of {length} bytes",
            )
            return
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            yield FrameOutcome(
                None, 0, "corrupt", "CRC32 mismatch"
            )
            return
        try:
            record = parse_payload(payload)
        except PersistenceError as exc:
            yield FrameOutcome(None, 0, "corrupt", str(exc))
            return
        yield FrameOutcome(record, HEADER_SIZE + length)
        position = end
