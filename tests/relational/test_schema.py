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


class TestAppendTyped:
    """The bulk path skips cell coercion and nothing else: a refused
    batch leaves the table as it was."""

    @pytest.fixture()
    def table(self):
        table = Table("people", people_schema(), primary_key="id")
        table.insert((1, "ada", 36))
        return table

    def assert_unchanged(self, table):
        assert len(table) == 1
        assert table.lookup(1) == (1, "ada", 36)
        assert table.lookup(2) is None

    def test_appended_rows_are_found_by_lookup(self, table):
        table.append_typed([(2, "alan", 41), (3, "grace", 85)])
        assert len(table) == 3
        assert table.lookup(3) == (3, "grace", 85)
        assert table.rows[1] == (2, "alan", 41)

    def test_null_key_refuses_the_batch(self, table):
        with pytest.raises(
            SchemaError, match="^NULL primary key in table 'people'$"
        ):
            table.append_typed([(2, "alan", 41), (None, "grace", 85)])
        self.assert_unchanged(table)

    def test_key_duplicated_within_the_batch_refuses_it(self, table):
        with pytest.raises(
            SchemaError, match="^duplicate primary key 2 in table 'people'$"
        ):
            table.append_typed([(2, "alan", 41), (2, "grace", 85)])
        self.assert_unchanged(table)

    def test_key_duplicated_against_an_insert_refuses_the_batch(self, table):
        with pytest.raises(
            SchemaError, match="^duplicate primary key 1 in table 'people'$"
        ):
            table.append_typed([(2, "alan", 41), (1, "grace", 85)])
        self.assert_unchanged(table)

    def test_wrong_width_refuses_the_batch(self, table):
        with pytest.raises(
            SchemaError, match="^row has 2 values, schema has 3 columns$"
        ):
            table.append_typed([(2, "alan", 41), (3, "grace")])
        self.assert_unchanged(table)

    def test_insert_keeps_the_same_texts(self, table):
        with pytest.raises(
            SchemaError, match="^duplicate primary key 1 in table 'people'$"
        ):
            table.insert((1, "alan", 41))
        with pytest.raises(
            SchemaError, match="^NULL primary key in table 'people'$"
        ):
            table.insert((None, "alan", 41))
        self.assert_unchanged(table)

    def test_insert_many_refuses_a_batch_whole(self, table):
        with pytest.raises(SchemaError, match="^expected int, got 'x'$"):
            table.insert_many([(2, "alan", 41), ("x", "grace", 85)])
        self.assert_unchanged(table)
