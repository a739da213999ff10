"""Journal records and their wire format.

One journal record describes one cache mutation.  Three types exist
(the DESIGN.md "Journal record wire format" table pins this contract):

* ``admit`` — a query result entered the cache.  Carries everything
  recovery needs to rebuild the entry without the origin: the entry
  id, the producing template id and parameter bindings, the region in
  serialized form, the residual-predicate signature, the truncated
  flag, the result as its binary table (``ResultTable.to_bytes``), the
  origin ``data_version`` the entry was admitted under, and the
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

A payload starts ``[u8 wire version] [u8 record type]`` and goes on
with the type's fixed-width fields (``struct``, little-endian; a
``data_version`` is a presence flag and an ``i64``).  An admit then
carries the members that are text or nested — template id, parameters,
region, signature, shard — as one canonical JSON object (sorted keys,
UTF-8) behind its ``u32`` length, and last the result's table blob,
whose column list is the schema's, encoded once per schema: no frame
spells its columns out.  The blob is decoded (and checked) only when
the entry is replayed; one that does not decode is that entry's
``error``, never a stop of the walk.  Versions 1 and 2 were JSON
throughout; such a payload is refused by the version it names.

One walk (:func:`walk_frames`) reads both such files, the journal
and the snapshot, as whole bytes, frame by frame until the data ends;
a header or payload cut short is a *torn* record, a checksum mismatch
is a *corrupt* record, and either one terminates replay cleanly at the
last good record — exactly the crash-consistency contract an
append-only journal buys.

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
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.geometry import regions
from repro.geometry.regions import DifferenceRegion, GeometryError, Region
from repro.locking import unshared
from repro.persistence.errors import PersistenceError

#: Bump when the payload schema changes incompatibly; readers refuse
#: records from the future instead of misinterpreting them.
WIRE_FORMAT_VERSION = 3

_HEADER = struct.Struct("<II")
#: Each payload's head: wire version, record type, then the type's
#: fixed-width fields.
_ADMIT = struct.Struct("<BBq?BqdI")
_EVICT = struct.Struct("<BBqBBqd")
_CLEAR = struct.Struct("<BBBqqd")
_ADMIT_TYPE, _EVICT_TYPE, _CLEAR_TYPE = 1, 2, 3

#: Why a single entry can leave the cache, by its wire code.
REMOVAL_REASONS = ("evict", "consolidate", "replace")

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
def _version_fields(version: int | None) -> tuple[bool, int]:
    return version is not None, version or 0


@dataclass(frozen=True)
class AdmitRecord:
    """A query result entered the cache."""

    entry_id: int
    template_id: str
    params: dict[str, Any]
    region: dict[str, Any]
    signature: str
    truncated: bool
    #: The result as ``ResultTable.to_bytes`` gives it; decoded (and
    #: checked) only when the entry is replayed.
    result: bytes
    data_version: int | None
    ts_ms: float
    #: The shard worker that admitted the entry; ``None`` on a
    #: single-proxy deployment, and then omitted from the fields.
    shard: str | None = None

    type = "admit"

    def to_payload(self) -> bytes:
        fields = {
            "template_id": self.template_id,
            "params": self.params,
            "region": self.region,
            "signature": self.signature,
        }
        if self.shard is not None:
            fields["shard"] = self.shard
        encoded = _CANONICAL.encode(fields).encode("utf-8")
        head = _ADMIT.pack(
            WIRE_FORMAT_VERSION, _ADMIT_TYPE, self.entry_id, self.truncated,
            *_version_fields(self.data_version), self.ts_ms, len(encoded),
        )
        return head + encoded + self.result

    @staticmethod
    def from_payload(payload: bytes) -> "AdmitRecord":
        _, _, entry_id, truncated, has_version, version, ts_ms, length = (
            _ADMIT.unpack_from(payload)
        )
        start = _ADMIT.size + length
        fields = _json_object(payload[_ADMIT.size:start])
        return AdmitRecord(
            entry_id=entry_id,
            template_id=str(fields["template_id"]),
            params=dict(fields["params"]),
            region=dict(fields["region"]),
            signature=str(fields["signature"]),
            truncated=truncated,
            result=payload[start:],
            data_version=version if has_version else None,
            ts_ms=ts_ms,
            shard=(
                None if fields.get("shard") is None else str(fields["shard"])
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

    def to_payload(self) -> bytes:
        return _EVICT.pack(
            WIRE_FORMAT_VERSION, _EVICT_TYPE, self.entry_id,
            REMOVAL_REASONS.index(self.reason),
            *_version_fields(self.data_version), self.ts_ms,
        )

    @staticmethod
    def from_payload(payload: bytes) -> "EvictRecord":
        _, _, entry_id, reason, has_version, version, ts_ms = _EVICT.unpack(
            payload
        )
        return EvictRecord(
            entry_id=entry_id,
            reason=REMOVAL_REASONS[reason],
            data_version=version if has_version else None,
            ts_ms=ts_ms,
        )


@dataclass(frozen=True)
class ClearRecord:
    """The whole cache was flushed (origin data-version change)."""

    data_version: int | None
    removed: int
    ts_ms: float

    type = "clear"

    def to_payload(self) -> bytes:
        return _CLEAR.pack(
            WIRE_FORMAT_VERSION, _CLEAR_TYPE,
            *_version_fields(self.data_version), self.removed, self.ts_ms,
        )

    @staticmethod
    def from_payload(payload: bytes) -> "ClearRecord":
        _, _, has_version, version, removed, ts_ms = _CLEAR.unpack(payload)
        return ClearRecord(
            data_version=version if has_version else None,
            removed=removed,
            ts_ms=ts_ms,
        )


JournalRecord = AdmitRecord | EvictRecord | ClearRecord

_PARSERS = {
    _ADMIT_TYPE: AdmitRecord.from_payload,
    _EVICT_TYPE: EvictRecord.from_payload,
    _CLEAR_TYPE: ClearRecord.from_payload,
}


# ------------------------------------------------------------- framing
# One encoder for every admit: ``json.dumps`` with options would build
# a new one per call.  The fields hold no cycles, so none is looked for.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)


def _json_object(encoded: bytes) -> dict[str, Any]:
    try:
        decoded = json.loads(encoded.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"unparseable record payload: {exc}") from exc
    if not isinstance(decoded, dict):
        raise PersistenceError("record payload is not a JSON object")
    return decoded


def encode_record(record: JournalRecord) -> bytes:
    """One framed record: header (length + CRC32) followed by payload."""
    payload = record.to_payload()
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def parse_payload(payload: bytes) -> JournalRecord:
    """Decode one checksum-verified payload into its record."""
    if payload[:1] == b"{":  # versions 1 and 2: JSON throughout
        version, kind = _json_object(payload).get("v"), 0
    elif len(payload) >= 2:
        version, kind = payload[0], payload[1]
    else:
        raise PersistenceError(f"a {len(payload)}-byte record payload")
    if version != WIRE_FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported wire format version {version!r}"
        )
    parser = _PARSERS.get(kind)
    if parser is None:
        raise PersistenceError(f"unknown record type {kind!r}")
    try:
        return parser(payload)
    except (IndexError, KeyError, TypeError, ValueError, struct.error) as exc:
        raise PersistenceError(f"malformed record fields: {exc}") from exc


@unshared(
    "records", "bytes_replayed", "bytes_total", "stop_reason", "stop_detail"
)
@dataclass
class JournalReadResult:
    """Everything one walk over a file's frames learned.

    Built and filled by the single thread running the walk, then
    treated as read-only — hence the ``unshared`` registration.
    """

    records: list[JournalRecord] = field(default_factory=list)
    bytes_replayed: int = 0  # bytes of intact frames
    bytes_total: int = 0  # file size, damaged tail included
    stop_reason: str | None = None  # None (clean EOF) | "torn" | "corrupt"
    stop_detail: str = ""

    @property
    def clean(self) -> bool:
        return self.stop_reason is None


def walk_frames(data: bytes) -> JournalReadResult:
    """Decode ``data``'s frames up to the first torn or corrupt one.

    A frame the data ends inside is *torn* (the classic torn write); a
    whole frame that fails its checksum or does not decode is
    *corrupt*.  Either one stops the walk: ``bytes_replayed`` ends at
    the last intact frame, ``bytes_total`` is ``len(data)``.
    """
    result = JournalReadResult(bytes_total=len(data))
    position, total = 0, len(data)
    while position < total:
        if total - position < HEADER_SIZE:
            return _stop(
                result, "torn",
                f"{total - position} trailing bytes, header needs "
                f"{HEADER_SIZE}",
            )
        length, crc = _HEADER.unpack_from(data, position)
        start = position + HEADER_SIZE
        end = start + length
        if end > total:
            return _stop(
                result, "torn",
                f"payload cut short: {total - start} of {length} bytes",
            )
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return _stop(result, "corrupt", "CRC32 mismatch")
        try:
            result.records.append(parse_payload(payload))
        except PersistenceError as exc:
            return _stop(result, "corrupt", str(exc))
        position = result.bytes_replayed = end
    return result


def _stop(
    result: JournalReadResult, reason: str, detail: str
) -> JournalReadResult:
    result.stop_reason = reason
    result.stop_detail = detail
    return result
