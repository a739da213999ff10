"""Aggregates, GROUP BY, and DISTINCT."""

import pytest

from repro.relational.catalog import Catalog
from repro.relational.errors import ExecutionError
from repro.relational.executor import Executor
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import ColumnType
from repro.sqlparser.parser import parse_select


@pytest.fixture()
def execute():
    catalog = Catalog()
    sales = Table(
        "Sales",
        Schema.of(
            ("id", ColumnType.INT),
            ("region", ColumnType.STR),
            ("amount", ColumnType.FLOAT),
            ("discount", ColumnType.FLOAT),
        ),
        primary_key="id",
    )
    sales.insert_many(
        [
            (1, "east", 100.0, None),
            (2, "east", 300.0, 10.0),
            (3, "west", 50.0, 5.0),
            (4, "west", 150.0, None),
            (5, "west", 100.0, 20.0),
        ]
    )
    catalog.add_table(sales)
    executor = Executor(catalog)

    def run(sql):
        return executor.execute(parse_select(sql))

    return run


class TestPlainAggregates:
    def test_count_star(self, execute):
        result = execute("SELECT COUNT(*) AS n FROM Sales")
        assert result.rows == [(5,)]
        assert result.schema.column("n").type is ColumnType.INT

    def test_count_ignores_nulls(self, execute):
        result = execute("SELECT COUNT(discount) AS n FROM Sales")
        assert result.rows == [(3,)]

    def test_sum_avg_min_max(self, execute):
        result = execute(
            "SELECT sum(amount) s, avg(amount) a, min(amount) lo, "
            "max(amount) hi FROM Sales"
        )
        assert result.rows == [(700.0, 140.0, 50.0, 300.0)]

    def test_aggregate_over_empty_input(self, execute):
        result = execute(
            "SELECT COUNT(*) n, sum(amount) s FROM Sales WHERE amount > 999"
        )
        assert result.rows == [(0, None)]

    def test_aggregate_of_expression(self, execute):
        result = execute("SELECT sum(amount * 2) AS doubled FROM Sales")
        assert result.rows == [(1400.0,)]

    def test_expression_of_aggregates(self, execute):
        result = execute(
            "SELECT max(amount) - min(amount) AS spread FROM Sales"
        )
        assert result.rows == [(250.0,)]


class TestGroupBy:
    def test_group_with_count_and_avg(self, execute):
        result = execute(
            "SELECT region, COUNT(*) n, avg(amount) mean FROM Sales "
            "GROUP BY region ORDER BY region"
        )
        assert result.rows == [("east", 2, 200.0), ("west", 3, 100.0)]

    def test_order_by_aggregate_output(self, execute):
        result = execute(
            "SELECT region, COUNT(*) n FROM Sales GROUP BY region "
            "ORDER BY n DESC"
        )
        assert [row[0] for row in result.rows] == ["west", "east"]

    def test_group_by_expression(self, execute):
        result = execute(
            "SELECT amount / 100.0 AS bucket, COUNT(*) n FROM Sales "
            "GROUP BY amount / 100.0 ORDER BY bucket"
        )
        assert [row[0] for row in result.rows] == [0.5, 1.0, 1.5, 3.0]

    def test_ungrouped_column_rejected(self, execute):
        with pytest.raises(ExecutionError, match="GROUP BY"):
            execute("SELECT region, amount FROM Sales GROUP BY region")

    def test_where_applies_before_grouping(self, execute):
        result = execute(
            "SELECT region, COUNT(*) n FROM Sales WHERE amount >= 100 "
            "GROUP BY region ORDER BY region"
        )
        assert result.rows == [("east", 2), ("west", 2)]

    def test_top_after_grouping(self, execute):
        result = execute(
            "SELECT TOP 1 region, COUNT(*) n FROM Sales GROUP BY region "
            "ORDER BY n DESC"
        )
        assert result.rows == [("west", 3)]

    def test_select_star_with_group_by_rejected(self, execute):
        with pytest.raises(ExecutionError, match="aggregated"):
            execute("SELECT * FROM Sales GROUP BY region")


class TestDistinct:
    def test_distinct_single_column(self, execute):
        result = execute("SELECT DISTINCT region FROM Sales ORDER BY region")
        assert result.rows == [("east",), ("west",)]

    def test_distinct_tuple(self, execute):
        result = execute(
            "SELECT DISTINCT region, amount FROM Sales "
            "ORDER BY region, amount"
        )
        assert len(result) == 5  # no duplicate (region, amount) pairs

    def test_distinct_with_top(self, execute):
        result = execute(
            "SELECT DISTINCT TOP 1 region FROM Sales ORDER BY region"
        )
        assert result.rows == [("east",)]

    def test_distinct_order_by_must_use_select_list(self, execute):
        with pytest.raises(ExecutionError, match="select list"):
            execute("SELECT DISTINCT region FROM Sales ORDER BY amount")


class TestAggregateErrors:
    def test_count_star_outside_aggregation(self):
        from repro.relational.expressions import CountStar
        from tests.interpreter import evaluate

        with pytest.raises(ExecutionError, match="aggregate context"):
            evaluate(CountStar())

    def test_aggregate_arity(self, execute):
        with pytest.raises(ExecutionError, match="one argument"):
            execute("SELECT sum(amount, discount) FROM Sales")
