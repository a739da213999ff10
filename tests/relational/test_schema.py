"""Schemas and tables."""

import pytest

from repro.relational.errors import SchemaError
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import ColumnType


def people_schema() -> Schema:
    return Schema.of(
        ("id", ColumnType.INT),
        ("name", ColumnType.STR),
        ("age", ColumnType.INT),
    )


class TestSchema:
    def test_position_and_column_lookup(self):
        schema = people_schema()
        assert schema.position("name") == 1
        assert schema.column("AGE").type is ColumnType.INT

    def test_lookup_is_case_insensitive_but_preserves_spelling(self):
        schema = Schema.of(("objID", ColumnType.INT))
        assert schema.has("objid")
        assert schema.names == ("objID",)

    def test_unknown_column_raises_with_candidates(self):
        with pytest.raises(SchemaError, match="id, name, age"):
            people_schema().position("salary")

    def test_duplicate_column_raises(self):
        with pytest.raises(SchemaError):
            Schema.of(("a", ColumnType.INT), ("A", ColumnType.STR))

    def test_invalid_column_name_raises(self):
        with pytest.raises(SchemaError):
            Column("bad name", ColumnType.INT)

    def test_coerce_row_validates_arity(self):
        with pytest.raises(SchemaError):
            people_schema().coerce_row((1, "x"))

    def test_coerce_row_validates_types(self):
        with pytest.raises(SchemaError):
            people_schema().coerce_row((1, "x", "not-an-age"))

    def test_project_preserves_order(self):
        projected = people_schema().project(["age", "id"])
        assert projected.names == ("age", "id")



class TestTable:
    def test_insert_and_iterate(self):
        table = Table("people", people_schema())
        table.insert((1, "ada", 36))
        table.insert((2, "alan", 41))
        assert len(table) == 2
        assert list(table)[1] == (2, "alan", 41)

    def test_primary_key_lookup(self):
        table = Table("people", people_schema(), primary_key="id")
        table.insert_many([(1, "ada", 36), (2, "alan", 41)])
        assert table.lookup(2) == (2, "alan", 41)
        assert table.lookup(99) is None

    def test_duplicate_primary_key_raises(self):
        table = Table("people", people_schema(), primary_key="id")
        table.insert((1, "ada", 36))
        with pytest.raises(SchemaError):
            table.insert((1, "alan", 41))

    def test_null_primary_key_raises(self):
        table = Table("people", people_schema(), primary_key="id")
        with pytest.raises(SchemaError):
            table.insert((None, "ada", 36))

    def test_lookup_without_primary_key_raises(self):
        table = Table("people", people_schema())
        with pytest.raises(SchemaError):
            table.lookup(1)

    def test_insert_validates_row(self):
        table = Table("people", people_schema())
        with pytest.raises(SchemaError):
            table.insert(("one", "ada", 36))
