"""The append-only journal: streaming reads and damaged tails.

Covers the edge cases the wire format was designed around: an empty or
missing journal, a record ending exactly on the read-buffer boundary,
a record straddling it, CRC failure in the *middle* of a file (replay
must stop there, not skip over), and trailing garbage.
"""

import dataclasses

from repro.persistence.journal import READ_BUFFER_SIZE, Journal
from repro.persistence.records import (
    AdmitRecord,
    EvictRecord,
    HEADER_SIZE,
    encode_record,
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


def sized_admit(entry_id: int, frame_size: int) -> AdmitRecord:
    """An admit record whose encoded frame is exactly ``frame_size``.

    Padding goes through a string cell of ``result`` with ASCII
    characters, so every padding character is exactly one payload byte.
    """
    base = admit(entry_id)
    shortfall = frame_size - len(encode_record(base))
    assert shortfall >= 0, "frame_size smaller than the minimal record"
    record = dataclasses.replace(
        base, result=padded("x" * shortfall)
    )
    assert len(encode_record(record)) == frame_size
    return record


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


class TestBufferBoundaries:
    def test_record_ending_exactly_on_buffer_boundary(self, tmp_path):
        """First frame fills the read buffer exactly; the next frame
        must still be decoded from the following chunk."""
        journal = Journal(tmp_path / "journal.bin")
        first = sized_admit(1, READ_BUFFER_SIZE)
        second = admit(2)
        journal.append(encode_record(first))
        journal.append(encode_record(second))
        result = journal.read()
        assert result.records == [first, second]
        assert result.clean

    def test_record_straddling_the_buffer_boundary(self, tmp_path):
        """The second frame's header is split across two read chunks —
        the reader must wait for more data, not call it torn."""
        journal = Journal(tmp_path / "journal.bin")
        first = sized_admit(1, READ_BUFFER_SIZE - HEADER_SIZE // 2)
        second = admit(2)
        journal.append(encode_record(first))
        journal.append(encode_record(second))
        result = journal.read()
        assert result.records == [first, second]
        assert result.clean

    def test_many_records_across_many_buffers(self, tmp_path):
        journal = Journal(tmp_path / "journal.bin")
        records = [sized_admit(i, 900) for i in range(1, 21)]
        for record in records:
            journal.append(encode_record(record))
        assert journal.size_bytes > READ_BUFFER_SIZE * 4
        result = journal.read()
        assert result.records == records


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
