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
    iter_frames,
    parse_payload,
    region_from_dict,
    region_to_dict,
)


def admit(entry_id=1, **overrides):
    fields = dict(
        entry_id=entry_id,
        template_id="radial",
        params={"ra": 164.0, "dec": 8.0},
        region=region_to_dict(HyperSphere((164.0, 8.0), 2.0)),
        signature="r >= -9999",
        truncated=False,
        result_xml="<result/>",
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
        payload = admit().to_payload()
        payload["v"] = WIRE_FORMAT_VERSION + 1
        raw = json.dumps(payload).encode()
        with pytest.raises(PersistenceError, match="wire format version"):
            parse_payload(raw)

    def test_unknown_record_type_refused(self):
        payload = admit().to_payload()
        payload["type"] = "merge"
        raw = json.dumps(payload).encode()
        with pytest.raises(PersistenceError, match="unknown record type"):
            parse_payload(raw)

    def test_non_object_payload_refused(self):
        with pytest.raises(PersistenceError, match="not a JSON object"):
            parse_payload(b"[1, 2, 3]")


class TestFrameWalk:
    def test_walks_consecutive_frames(self):
        records = [admit(1), admit(2), admit(3)]
        data = b"".join(encode_record(r) for r in records)
        outcomes = list(iter_frames(data))
        assert [o.record for o in outcomes] == records
        assert sum(o.consumed for o in outcomes) == len(data)

    def test_truncated_header_is_torn(self):
        data = encode_record(admit()) + b"\x03\x00"
        outcomes = list(iter_frames(data))
        assert outcomes[-1].stop_reason == "torn"
        assert "header" in outcomes[-1].detail

    def test_truncated_payload_is_torn(self):
        frame = encode_record(admit())
        outcomes = list(iter_frames(frame[:-5]))
        assert outcomes[-1].stop_reason == "torn"
        assert "cut short" in outcomes[-1].detail

    def test_crc_mismatch_is_corrupt(self):
        frame = bytearray(encode_record(admit()))
        frame[-1] ^= 0xFF
        outcomes = list(iter_frames(bytes(frame)))
        assert outcomes[-1].stop_reason == "corrupt"
        assert "CRC32" in outcomes[-1].detail

    def test_valid_crc_but_unparseable_payload_is_corrupt(self):
        payload = b"not json at all"
        frame = (
            struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        )
        outcomes = list(iter_frames(frame))
        assert outcomes[-1].stop_reason == "corrupt"
