"""Result tables: sizing, operations, and the XML wire format."""

from operator import itemgetter

import pytest

from repro.relational.errors import ExecutionError, SchemaError
from repro.relational.result import ResultTable, sort_rows
from repro.relational.schema import Schema
from repro.relational.types import ColumnType


def schema():
    return Schema.of(
        ("id", ColumnType.INT),
        ("name", ColumnType.STR),
        ("score", ColumnType.FLOAT),
    )


def table(rows):
    return ResultTable(schema(), rows)


SAMPLE = [
    (1, "a", 3.5),
    (2, "b", 1.5),
    (3, None, 2.5),
]


class TestBasics:
    def test_len_and_iteration(self):
        result = table(SAMPLE)
        assert len(result) == 3
        assert list(result)[0] == (1, "a", 3.5)

    def test_column_values(self):
        assert table(SAMPLE).column_values("id") == [1, 2, 3]

    def test_equality_ignores_schema_types_but_not_names(self):
        other = ResultTable(
            Schema.of(("id", ColumnType.INT), ("x", ColumnType.STR),
                      ("score", ColumnType.FLOAT)),
            SAMPLE,
        )
        assert table(SAMPLE) != other
        assert table(SAMPLE) == table(list(SAMPLE))


class TestByteSize:
    def test_empty_table_has_header_overhead_only(self):
        assert table([]).byte_size() == 128

    def test_size_grows_with_rows(self):
        one = table(SAMPLE[:1]).byte_size()
        three = table(SAMPLE).byte_size()
        assert three > one > 128

    def test_size_is_cached_and_stable(self):
        result = table(SAMPLE)
        assert result.byte_size() == result.byte_size()


class TestOperations:
    def test_filtered(self):
        kept = table(SAMPLE).filtered(lambda row: row[0] > 1)
        assert [row[0] for row in kept.rows] == [2, 3]

    def test_top_n(self):
        assert len(table(SAMPLE).top_n(2)) == 2
        assert len(table(SAMPLE).top_n(10)) == 3

    def test_top_n_negative_raises(self):
        with pytest.raises(ExecutionError):
            table(SAMPLE).top_n(-1)

    def test_sorted_by_with_nulls_last(self):
        ordered = sort_rows(SAMPLE, [(itemgetter(1), False)])
        assert [row[1] for row in ordered] == ["a", "b", None]

    def test_sorted_by_descending(self):
        ordered = sort_rows(SAMPLE, [(itemgetter(2), True)])
        assert [row[2] for row in ordered] == [3.5, 2.5, 1.5]

    def test_sorted_by_leftmost_key_dominates(self):
        rows = [(1, "b", 1.0), (2, "a", 1.0), (3, None, 2.0), (4, "a", 2.0)]
        keys = [(itemgetter(2), True), (itemgetter(1), False)]
        ordered = sort_rows(rows, keys)
        assert [row[0] for row in ordered] == [4, 3, 2, 1]

    def test_sort_rows_is_stable_and_reads_each_key_once_per_row(self):
        """The one ORDER BY: the executor sorts environments with it,
        the proxy cached tuples; ties keep their input order, under
        DESC too, and a key costs one evaluation per row."""
        rows = [{"k": 1, "id": "a"}, {"k": 2, "id": "b"}, {"k": 1, "id": "c"}]
        reads = []

        def key(row):
            reads.append(row["id"])
            return row["k"]

        assert [r["id"] for r in sort_rows(rows, [(key, True)])] == [
            "b", "a", "c",
        ]
        assert sorted(reads) == ["a", "b", "c"]
        assert sort_rows(rows, []) == rows

    def test_merge_dedup_prefers_first(self):
        left = table([(1, "left", 1.0)])
        right = table([(1, "right", 2.0), (2, "new", 3.0)])
        merged = left.merge_dedup(right, key="id")
        assert len(merged) == 2
        assert merged.rows[0] == (1, "left", 1.0)
        assert merged.rows[1] == (2, "new", 3.0)

    def test_merge_dedup_rejects_mismatched_columns(self):
        other = ResultTable(Schema.of(("id", ColumnType.INT)), [(1,)])
        with pytest.raises(SchemaError):
            table(SAMPLE).merge_dedup(other, key="id")


class TestXml:
    def test_roundtrip(self):
        original = table(SAMPLE)
        restored = ResultTable.from_xml(original.to_xml())
        assert restored == original
        assert restored.schema.column("score").type is ColumnType.FLOAT

    def test_roundtrip_empty(self):
        original = table([])
        assert ResultTable.from_xml(original.to_xml()) == original

    def test_roundtrip_bool_column(self):
        boolean = ResultTable(
            Schema.of(("flag", ColumnType.BOOL)), [(True,), (False,)]
        )
        assert ResultTable.from_xml(boolean.to_xml()) == boolean

    def test_malformed_xml_raises(self):
        with pytest.raises(ExecutionError):
            ResultTable.from_xml("<not-closed>")

    def test_null_cells_survive(self):
        restored = ResultTable.from_xml(table(SAMPLE).to_xml())
        assert restored.rows[2][1] is None
