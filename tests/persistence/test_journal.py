"""The append-only journal: whole-bytes reads and damaged tails.

Covers the edge cases the wire format was designed around: an empty or
missing journal, a cut at every byte of a mixed journal, a flipped bit
in every frame, CRC failure in the *middle* of a file (replay must stop
there, not skip over), and trailing garbage.
"""

from bisect import bisect_right
from itertools import accumulate

from repro.persistence.journal import Journal
from repro.persistence.records import (
    AdmitRecord,
    ClearRecord,
    EvictRecord,
    HEADER_SIZE,
    encode_record,
    walk_frames,
)
from repro.relational.result import ResultTable
from repro.relational.schema import Schema
from repro.relational.types import ColumnType


def padded(pad: str) -> bytes:
    """A one-row, one-STR-column table blob holding ``pad``."""
    return ResultTable(Schema.of(("s", ColumnType.STR)), [(pad,)]).to_bytes()


def admit(entry_id=1, pad: str = "") -> AdmitRecord:
    return AdmitRecord(
        entry_id=entry_id,
        template_id="radial",
        params={"ra": 1.0},
        region={"shape": "hypersphere", "center": [0.0, 0.0], "radius": 1.0},
        signature="",
        truncated=False,
        result=padded(pad),
        data_version=1,
        ts_ms=0.0,
    )


class TestEmptyJournals:
    def test_missing_file_reads_empty_and_clean(self, tmp_path):
        result = Journal(tmp_path / "journal.bin").read()
        assert result.records == []
        assert result.clean
        assert result.bytes_total == 0

    def test_zero_byte_file_reads_empty_and_clean(self, tmp_path):
        path = tmp_path / "journal.bin"
        path.write_bytes(b"")
        result = Journal(path).read()
        assert result.records == []
        assert result.clean

    def test_reset_truncates(self, tmp_path):
        journal = Journal(tmp_path / "journal.bin")
        journal.append(encode_record(admit(1)))
        assert journal.size_bytes > 0
        journal.reset()
        assert journal.size_bytes == 0
        assert journal.records_appended == 0
        assert journal.read().records == []


class TestAppendAndRead:
    def test_round_trips_mixed_records(self, tmp_path):
        journal = Journal(tmp_path / "journal.bin")
        records = [
            admit(1),
            EvictRecord(entry_id=1, reason="evict", data_version=1,
                        ts_ms=2.0),
            admit(2),
        ]
        for record in records:
            journal.append(encode_record(record))
        result = journal.read()
        assert result.records == records
        assert result.clean
        assert result.bytes_replayed == result.bytes_total

    def test_append_returns_frame_size(self, tmp_path):
        journal = Journal(tmp_path / "journal.bin")
        frame = encode_record(admit(1))
        assert journal.append(frame) == len(frame)


class TestWalkAtEveryCut:
    """The one frame walk over whole bytes, cut anywhere: exactly the
    frames wholly inside the cut come back, and the walk says where
    they end and why it stopped."""

    RECORDS = [
        admit(1),
        EvictRecord(entry_id=1, reason="evict", data_version=1, ts_ms=2.0),
        admit(2, pad="abc"),
        ClearRecord(data_version=2, removed=1, ts_ms=3.0),
        admit(3, pad="x" * 40),
        EvictRecord(entry_id=3, reason="consolidate", data_version=2,
                    ts_ms=4.0),
    ]

    def frames(self):
        return [encode_record(record) for record in self.RECORDS]

    def test_every_prefix(self):
        frames = self.frames()
        data = b"".join(frames)
        boundaries = list(accumulate(map(len, frames), initial=0))
        for cut in range(len(data) + 1):
            read = walk_frames(data[:cut])
            whole = bisect_right(boundaries, cut) - 1
            assert read.records == self.RECORDS[:whole], cut
            assert read.bytes_replayed == boundaries[whole], cut
            assert read.bytes_total == cut
            at_boundary = cut == boundaries[whole]
            assert read.stop_reason == (None if at_boundary else "torn")

    def test_a_flipped_bit_stops_the_walk_at_its_frame(self):
        frames = self.frames()
        data = b"".join(frames)
        start = 0
        for index, frame in enumerate(frames):
            # Past the length prefix, any flip fails the checksum.
            for offset in range(4, len(frame)):
                damaged = bytearray(data)
                damaged[start + offset] ^= 1 << (offset % 8)
                read = walk_frames(bytes(damaged))
                assert read.records == self.RECORDS[:index], offset
                assert read.bytes_replayed == start
                assert read.stop_reason == "corrupt"
            start += len(frame)


class TestDamagedTails:
    def test_torn_final_record(self, tmp_path):
        journal = Journal(tmp_path / "journal.bin")
        journal.append(encode_record(admit(1)))
        journal.append(encode_record(admit(2)))
        data = journal.path.read_bytes()
        journal.path.write_bytes(data[:-7])
        result = journal.read()
        assert [r.entry_id for r in result.records] == [1]
        assert result.stop_reason == "torn"
        assert result.bytes_replayed < result.bytes_total

    def test_trailing_garbage_shorter_than_a_header(self, tmp_path):
        journal = Journal(tmp_path / "journal.bin")
        journal.append(encode_record(admit(1)))
        with open(journal.path, "ab") as handle:
            handle.write(b"\x01\x02\x03")
        result = journal.read()
        assert [r.entry_id for r in result.records] == [1]
        assert result.stop_reason == "torn"

    def test_crc_failure_mid_file_stops_replay_there(self, tmp_path):
        """A corrupt record in the middle hides everything after it —
        replay must never resynchronize past damage."""
        journal = Journal(tmp_path / "journal.bin")
        first, second, third = admit(1), admit(2), admit(3)
        journal.append(encode_record(first))
        offset_second = journal.size_bytes
        journal.append(encode_record(second))
        journal.append(encode_record(third))
        data = bytearray(journal.path.read_bytes())
        data[offset_second + HEADER_SIZE + 2] ^= 0x40  # payload byte
        journal.path.write_bytes(bytes(data))
        result = journal.read()
        assert result.records == [first]
        assert result.stop_reason == "corrupt"
        assert "CRC32" in result.stop_detail
