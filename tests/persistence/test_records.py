"""Journal records: region codec, framing, and wire-format fencing."""

import json
import struct
import zlib

import pytest

from repro.geometry.regions import (
    ConvexPolytope,
    DifferenceRegion,
    Halfspace,
    HyperRect,
    HyperSphere,
)
from repro.persistence.errors import PersistenceError
from repro.persistence.records import (
    AdmitRecord,
    ClearRecord,
    EvictRecord,
    HEADER_SIZE,
    WIRE_FORMAT_VERSION,
    encode_record,
    parse_payload,
    region_from_dict,
    region_to_dict,
    walk_frames,
)
from repro.relational.result import ResultTable
from repro.relational.schema import Schema
from repro.relational.types import ColumnType


def admit(entry_id=1, **overrides):
    fields = dict(
        entry_id=entry_id,
        template_id="radial",
        params={"ra": 164.0, "dec": 8.0},
        region=region_to_dict(HyperSphere((164.0, 8.0), 2.0)),
        signature="r >= -9999",
        truncated=False,
        result=ResultTable(
            Schema.of(("objID", ColumnType.INT)), [(1,)]
        ).to_bytes(),
        data_version=1,
        ts_ms=12.5,
    )
    fields.update(overrides)
    return AdmitRecord(**fields)


class TestRegionCodec:
    @pytest.mark.parametrize(
        "region",
        [
            HyperSphere((164.0, 8.0), 2.5),
            HyperRect((0.0, -1.0), (3.0, 4.0)),
            ConvexPolytope(
                halfspaces=(
                    Halfspace((1.0, 0.0), 5.0),
                    Halfspace((-1.0, 0.0), 0.0),
                    Halfspace((0.0, 1.0), 5.0),
                    Halfspace((0.0, -1.0), 0.0),
                ),
                bbox=HyperRect((0.0, 0.0), (5.0, 5.0)),
            ),
        ],
        ids=["hypersphere", "hyperrect", "polytope"],
    )
    def test_round_trip(self, region):
        payload = region_to_dict(region)
        # The payload must survive JSON, like it does inside a frame.
        rebuilt = region_from_dict(json.loads(json.dumps(payload)))
        assert rebuilt == region

    def test_remainder_region_is_not_journaled(self):
        # The explain layer renders a difference region; the journal
        # refuses one (it never stores a remainder).
        sphere = HyperSphere((164.0, 8.0), 2.0)
        remainder = DifferenceRegion(sphere, (HyperSphere((164.0, 8.0), 1.0),))
        with pytest.raises(PersistenceError, match="not journal-serial"):
            region_to_dict(remainder)
        payload = {
            "shape": "difference",
            "base": region_to_dict(sphere),
            "holes": [region_to_dict(HyperSphere((164.0, 8.0), 1.0))],
        }
        with pytest.raises(PersistenceError, match="not journal-serial"):
            region_from_dict(payload)

    def test_unknown_shape_rejected(self):
        with pytest.raises(PersistenceError, match="unknown region shape"):
            region_from_dict({"shape": "torus"})

    def test_malformed_payload_rejected(self):
        with pytest.raises(PersistenceError, match="malformed region"):
            region_from_dict({"shape": "hypersphere"})


class TestRecordRoundTrip:
    @pytest.mark.parametrize(
        "record",
        [
            admit(),
            admit(data_version=None, truncated=True),
            EvictRecord(
                entry_id=7, reason="consolidate", data_version=3, ts_ms=1.0
            ),
            ClearRecord(data_version=None, removed=12, ts_ms=9.25),
        ],
        ids=["admit", "admit-unversioned", "evict", "clear"],
    )
    def test_frame_round_trip(self, record):
        frame = encode_record(record)
        assert parse_payload(frame[HEADER_SIZE:]) == record

    def test_future_wire_version_refused(self):
        for record in (admit(), EvictRecord(1, "evict", 1, 0.0)):
            raw = bytes([WIRE_FORMAT_VERSION + 1]) + record.to_payload()[1:]
            with pytest.raises(PersistenceError, match="wire format version"):
                parse_payload(raw)
        # Versions 1 and 2 were JSON throughout.
        with pytest.raises(PersistenceError, match="wire format version 2"):
            parse_payload(b'{"type": "evict", "v": 2}')

    def test_unknown_record_type_refused(self):
        raw = bytes([WIRE_FORMAT_VERSION, 9]) + admit().to_payload()[2:]
        with pytest.raises(PersistenceError, match="unknown record type 9"):
            parse_payload(raw)

    def test_non_object_payload_refused(self):
        # An admit's text and nested members travel as one JSON object.
        record = admit()
        fields = json.dumps(
            {
                "params": record.params,
                "region": record.region,
                "signature": record.signature,
                "template_id": record.template_id,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        payload = record.to_payload()
        assert fields in payload
        listed = b"[" + b" " * (len(fields) - 2) + b"]"
        with pytest.raises(PersistenceError, match="not a JSON object"):
            parse_payload(payload.replace(fields, listed))
        with pytest.raises(PersistenceError, match="1-byte record payload"):
            parse_payload(bytes([WIRE_FORMAT_VERSION]))


class TestFrameWalk:
    def test_walks_consecutive_frames(self):
        records = [admit(1), admit(2), admit(3)]
        data = b"".join(encode_record(r) for r in records)
        read = walk_frames(data)
        assert read.records == records
        assert read.clean
        assert read.bytes_replayed == read.bytes_total == len(data)

    def test_truncated_header_is_torn(self):
        data = encode_record(admit()) + b"\x03\x00"
        read = walk_frames(data)
        assert read.stop_reason == "torn"
        assert read.stop_detail == "2 trailing bytes, header needs 8"

    def test_truncated_payload_is_torn(self):
        frame = encode_record(admit())
        read = walk_frames(frame[:-5])
        assert read.stop_reason == "torn"
        assert read.stop_detail == (
            f"payload cut short: {len(frame) - HEADER_SIZE - 5} of "
            f"{len(frame) - HEADER_SIZE} bytes"
        )

    def test_crc_mismatch_is_corrupt(self):
        frame = bytearray(encode_record(admit()))
        frame[-1] ^= 0xFF
        read = walk_frames(bytes(frame))
        assert read.stop_reason == "corrupt"
        assert read.stop_detail == "CRC32 mismatch"

    def test_valid_crc_but_unparseable_payload_is_corrupt(self):
        payload = b"not json at all"
        frame = (
            struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        )
        read = walk_frames(frame)
        assert read.stop_reason == "corrupt"
        assert read.records == []
