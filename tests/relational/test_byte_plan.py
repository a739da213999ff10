"""``ResultTable.byte_size`` sums from the schema's byte plan in O(rows);
the per-cell walk it replaced is kept here as the oracle.

The oracle asks ``ColumnType.byte_size`` for every cell; the plan reads
the same per-type widths (``FIXED_BYTES`` / ``NULL_BYTES``), worked
out once per schema.  Both must agree on every table, bit for bit.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational import result as result_module
from repro.relational.result import ResultTable
from repro.relational.schema import Column, Schema
from repro.relational.types import FIXED_BYTES, NULL_BYTES, ColumnType


def cell_walk_byte_size(table: ResultTable) -> int:
    """The byte size as the sum over every cell (the oracle)."""
    total = result_module._HEADER_OVERHEAD_BYTES
    types = [column.type for column in table.schema.columns]
    for row in table.rows:
        total += result_module._ROW_OVERHEAD_BYTES
        for ctype, value in zip(types, row):
            total += result_module._CELL_OVERHEAD_BYTES + ctype.byte_size(value)
    return total


VALUES = {
    ColumnType.INT: st.integers(min_value=-(2**70), max_value=2**70),
    ColumnType.FLOAT: st.floats(allow_nan=True, allow_infinity=True),
    # Empty, ASCII and multi-byte (up to four UTF-8 bytes a character).
    ColumnType.STR: st.one_of(
        st.just(""), st.text(max_size=12), st.text("é星\U0001f52d", max_size=4)
    ),
    ColumnType.BOOL: st.booleans(),
}


@st.composite
def tables(draw):
    types = draw(st.lists(st.sampled_from(list(ColumnType)), max_size=8))
    schema = Schema(
        tuple(Column(f"c{i}", ctype) for i, ctype in enumerate(types))
    )
    cell = [st.one_of(st.none(), VALUES[ctype]) for ctype in types]
    rows = draw(st.lists(st.tuples(*cell), max_size=50))
    return ResultTable(schema, rows)


@settings(max_examples=300, deadline=None)
@given(tables())
@example(ResultTable(Schema.of(("s", ColumnType.STR)), [("",), (None,)]))
@example(ResultTable(Schema(()), [(), ()]))
def test_the_plan_equals_the_cell_walk(table):
    assert table.byte_size() == cell_walk_byte_size(table)


def test_one_statement_of_the_widths():
    """``ColumnType.byte_size`` and the plan read the same table."""
    for ctype, width in FIXED_BYTES.items():
        assert ctype.byte_size(True if ctype is ColumnType.BOOL else 7) == width
    assert {ctype.byte_size(None) for ctype in ColumnType} == {NULL_BYTES}
    schema = Schema.of(
        ("id", ColumnType.INT),
        ("name", ColumnType.STR),
        ("ok", ColumnType.BOOL),
        ("ra", ColumnType.FLOAT),
    )
    assert schema.byte_plan == (17, (1,), (8, 0, 1, 8))
    assert schema.byte_plan is schema.byte_plan  # worked out once


def test_a_one_row_answer_calls_no_per_cell_method(monkeypatch):
    schema = Schema.of(*((f"c{i}", ColumnType.FLOAT) for i in range(12)))
    table = ResultTable(schema, [tuple(float(i) for i in range(12))])
    calls = []
    real = ColumnType.byte_size

    def counted(self, value):
        calls.append(value)
        return real(self, value)

    monkeypatch.setattr(ColumnType, "byte_size", counted)
    assert table.byte_size() == 128 + 16 + 12 * (8 + 8)
    assert calls == []
