"""``ResultTable.to_payload`` / ``from_payload`` are exact.

The journal carries a result as typed JSON rows.  Whatever a table
holds — NULL, NaN, the infinities, ``-0.0``, ints past 2**53, empty
text, control characters, non-BMP text, no rows at all — comes back
with the same column names and types and, cell by cell, the same value
of the same Python type: through one journal frame, and through a
handoff byte stream.  Floats are compared by their bits.  NaN travels
as JSON's one ``NaN`` token, so a NaN comes back as the canonical
``float("nan")``: its sign and payload bits are not carried (nor are
they by the XML wire).
"""

import math
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.handoff import decode_handoff, encode_handoff
from repro.persistence.records import (
    HEADER_SIZE,
    AdmitRecord,
    encode_record,
    parse_payload,
)
from repro.relational.result import ResultTable
from repro.relational.schema import Column, Schema
from repro.relational.types import ColumnType

AWKWARD_TEXT = ["", "\r", "\x01", "\r\n", "\U0001f52d", "a\rb", '"\\', "\x00"]
AWKWARD_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324]
BIG = 2**53

VALUES = {
    ColumnType.INT: st.one_of(
        st.sampled_from([BIG + 1, -BIG - 1, 2**80]),
        st.integers(min_value=-(2**70), max_value=2**70),
    ),
    ColumnType.FLOAT: st.one_of(
        st.sampled_from(AWKWARD_FLOATS), st.floats(allow_nan=False)
    ),
    ColumnType.STR: st.one_of(st.sampled_from(AWKWARD_TEXT), st.text()),
    ColumnType.BOOL: st.booleans(),
}


@st.composite
def tables(draw):
    types = draw(st.lists(st.sampled_from(list(ColumnType)), max_size=8))
    schema = Schema(
        tuple(Column(f"c{i}_x.y", ctype) for i, ctype in enumerate(types))
    )
    row = st.tuples(*[st.one_of(st.none(), VALUES[t]) for t in types])
    return ResultTable(schema, draw(st.lists(row, max_size=6)))


def same_cell(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def assert_exact(decoded, table):
    assert [(c.name, c.type) for c in decoded.schema.columns] == [
        (c.name, c.type) for c in table.schema.columns
    ]
    assert len(decoded) == len(table)
    for got, want in zip(decoded.rows, table.rows):
        assert type(got) is tuple
        assert len(got) == len(want)
        assert all(map(same_cell, got, want)), (got, want)


def record_of(table, entry_id=1):
    return AdmitRecord(
        entry_id=entry_id,
        template_id="t",
        params={},
        region={"shape": "hypersphere", "center": [0.0], "radius": 1.0},
        signature="",
        truncated=False,
        result=table.to_payload(),
        data_version=1,
        ts_ms=0.0,
    )


def through_a_frame(table):
    frame = encode_record(record_of(table))
    return ResultTable.from_payload(parse_payload(frame[HEADER_SIZE:]).result)


ALL_TYPES = Schema(tuple(Column(f"c{t.value}", t) for t in ColumnType))


@settings(max_examples=300, deadline=None)
@given(tables())
@example(ResultTable(Schema(()), []))
@example(ResultTable(ALL_TYPES, []))
@example(ResultTable(ALL_TYPES, [(None, None, None, None)]))
@example(
    ResultTable(
        ALL_TYPES,
        [
            (BIG + 1, float("nan"), "\r", True),
            (-(2**80), -0.0, "\x01\U0001f52d", False),
            (0, float("-inf"), "", None),
        ],
    )
)
def test_a_journal_frame_carries_a_table_exactly(table):
    assert_exact(through_a_frame(table), table)


@settings(max_examples=100, deadline=None)
@given(st.lists(tables(), max_size=4))
def test_a_handoff_carries_tables_exactly(tables_):
    records = tuple(
        record_of(table, entry_id)
        for entry_id, table in enumerate(tables_, start=1)
    )
    decoded = decode_handoff(encode_handoff(records))
    assert [r.entry_id for r in decoded] == [r.entry_id for r in records]
    for record, table in zip(decoded, tables_):
        assert_exact(ResultTable.from_payload(record.result), table)


def test_any_nan_comes_back_as_the_canonical_nan():
    quiet = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0001))[0]
    table = ResultTable(Schema.of(("f", ColumnType.FLOAT)), [(quiet,)])
    (row,) = through_a_frame(table).rows
    assert math.isnan(row[0])
    assert struct.pack("<d", row[0]) == struct.pack("<d", float("nan"))


def test_a_float_column_widens_an_int_cell_as_from_xml_does():
    table = ResultTable(Schema.of(("f", ColumnType.FLOAT)), [(3,)])
    (row,) = through_a_frame(table).rows
    (xml_row,) = ResultTable.from_xml(table.to_xml()).rows
    assert row == xml_row == (3.0,)
    assert type(row[0]) is float
