"""Executor semantics on a hand-built catalog."""

import pytest

from repro.relational.catalog import Catalog
from repro.relational.errors import (
    CatalogError,
    ExecutionError,
    RelationalError,
)
from repro.relational.executor import Executor
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import ColumnType
from repro.sqlparser.parser import parse_select
from repro.udf.registry import TableFunction


@pytest.fixture()
def catalog():
    catalog = Catalog()
    users = Table(
        "Users",
        Schema.of(
            ("id", ColumnType.INT),
            ("name", ColumnType.STR),
            ("age", ColumnType.INT),
            ("city", ColumnType.STR),
        ),
        primary_key="id",
    )
    users.insert_many(
        [
            (1, "ada", 36, "london"),
            (2, "alan", 41, "london"),
            (3, "grace", 85, "arlington"),
            (4, "edsger", 72, None),
        ]
    )
    catalog.add_table(users)

    orders = Table(
        "Orders",
        Schema.of(
            ("order_id", ColumnType.INT),
            ("user_id", ColumnType.INT),
            ("total", ColumnType.FLOAT),
        ),
        primary_key="order_id",
    )
    orders.insert_many(
        [
            (10, 1, 25.0),
            (11, 1, 75.0),
            (12, 3, 10.0),
            (13, 9, 99.0),  # dangling user
        ]
    )
    catalog.add_table(orders)

    catalog.functions.register_table(
        TableFunction(
            name="fTopUsers",
            params=("min_age",),
            schema=Schema.of(
                ("id", ColumnType.INT), ("age", ColumnType.INT)
            ),
            impl=lambda cat, args: [
                (row[0], row[2])
                for row in users.rows
                if row[2] >= args[0]
            ],
        )
    )
    return catalog


@pytest.fixture()
def execute(catalog):
    executor = Executor(catalog)

    def run(sql):
        return executor.execute(parse_select(sql))

    return run


class TestScanFilterProject:
    def test_simple_select(self, execute):
        result = execute("SELECT name FROM Users WHERE age > 40")
        assert sorted(result.column_values("name")) == [
            "alan", "edsger", "grace",
        ]

    def test_select_star(self, execute):
        result = execute("SELECT * FROM Users")
        assert result.column_names == ("id", "name", "age", "city")
        assert len(result) == 4

    def test_where_null_is_not_true(self, execute):
        # edsger's city is NULL; `city <> 'london'` is NULL for him.
        result = execute("SELECT name FROM Users WHERE city <> 'london'")
        assert result.column_values("name") == ["grace"]

    def test_is_null_predicate(self, execute):
        result = execute("SELECT name FROM Users WHERE city IS NULL")
        assert result.column_values("name") == ["edsger"]

    def test_computed_select_item_with_alias(self, execute):
        result = execute("SELECT age * 2 AS doubled FROM Users WHERE id = 1")
        assert result.column_names == ("doubled",)
        assert result.column_values("doubled") == [72]

    def test_in_predicate(self, execute):
        result = execute(
            "SELECT name FROM Users WHERE city IN ('arlington', 'nowhere')"
        )
        assert result.column_values("name") == ["grace"]


class TestOrderAndTop:
    def test_order_by(self, execute):
        result = execute("SELECT name FROM Users ORDER BY age DESC")
        assert result.column_values("name") == [
            "grace", "edsger", "alan", "ada",
        ]

    def test_order_by_with_nulls_last(self, execute):
        result = execute("SELECT name FROM Users ORDER BY city")
        assert result.column_values("name")[-1] == "edsger"

    def test_top(self, execute):
        result = execute("SELECT TOP 2 name FROM Users ORDER BY age")
        assert result.column_values("name") == ["ada", "alan"]

    def test_top_zero(self, execute):
        assert len(execute("SELECT TOP 0 name FROM Users")) == 0

    def test_order_by_two_keys_one_descending(self, execute):
        result = execute("SELECT name FROM Users ORDER BY city DESC, age")
        # NULL sorts as the largest value: first under DESC.
        assert result.column_values("name") == [
            "edsger", "ada", "alan", "grace",
        ]

    def test_order_by_expression_not_in_select_list(self, execute):
        result = execute("SELECT name FROM Users ORDER BY age * -1")
        assert result.column_values("name")[0] == "grace"


class TestJoins:
    def test_pk_lookup_join(self, execute):
        result = execute(
            "SELECT u.name, o.total FROM Orders o "
            "JOIN Users u ON o.user_id = u.id"
        )
        assert len(result) == 3  # dangling order drops out
        assert sorted(result.column_values("total")) == [10.0, 25.0, 75.0]

    def test_hash_join_on_non_key(self, execute):
        # Join on city (not a primary key) exercises the hash-join path.
        result = execute(
            "SELECT u.name, v.name AS other FROM Users u "
            "JOIN Users v ON u.city = v.city WHERE u.id < v.id"
        )
        assert len(result) == 1
        assert result.rows[0] == ("ada", "alan")

    def test_nested_loop_join_on_inequality(self, execute):
        result = execute(
            "SELECT u.name FROM Orders o JOIN Users u ON o.total > u.age"
        )
        # totals 25/75/10/99 vs ages 36/41/85/72:
        # 75 beats 36/41/72; 99 beats all four -> 7 rows.
        assert len(result) == 7

    def test_join_preserves_qualified_access(self, execute):
        result = execute(
            "SELECT o.user_id, u.id FROM Orders o "
            "JOIN Users u ON o.user_id = u.id WHERE u.age > 80"
        )
        assert result.rows == [(3, 3)]


class TestTableFunctions:
    def test_tvf_scan(self, execute):
        result = execute("SELECT id FROM fTopUsers(50)")
        assert sorted(result.column_values("id")) == [3, 4]

    def test_tvf_join_back(self, execute):
        result = execute(
            "SELECT u.name FROM fTopUsers(50) t JOIN Users u ON t.id = u.id"
        )
        assert sorted(result.column_values("name")) == ["edsger", "grace"]

    def test_tvf_argument_expression(self, execute):
        result = execute("SELECT id FROM fTopUsers(25 + 25)")
        assert len(result) == 2

    def test_tvf_with_parameter_arg_fails(self, execute):
        with pytest.raises(ExecutionError, match="non-constant"):
            execute("SELECT id FROM fTopUsers($age)")

    @pytest.mark.parametrize(
        "argument",
        ["1e400", "-1e400", "1e400 - 1e400", "1" + "0" * 400],
        ids=["inf", "-inf", "nan", "huge-int"],
    )
    def test_tvf_with_non_finite_argument_fails(self, execute, argument):
        """Free SQL is outside input: ``1e400`` parses to infinity."""
        with pytest.raises(
            ExecutionError, match="non-finite argument to fTopUsers"
        ):
            execute(f"SELECT id FROM fTopUsers({argument})")


    @pytest.mark.parametrize(
        "source",
        [
            "fGetNearbyObjEq(1, 1, -1)",
            "fGetNearbyObjEq(1, 1, 10800.5)",
            "fGetObjFromRect(10, 5, 1, 2)",
            "fGetNearbyObjXYZ(0, 0, 0, 1)",
            "fGetNearbyObjEq(1, 1)",
            "fNoSuch(1)",
        ],
        ids=[
            "negative-radius", "radius-past-180", "inverted-rectangle",
            "zero-vector", "wrong-arity", "unknown-function",
        ],
    )
    def test_what_a_function_rejects_is_an_engine_error(self, origin, source):
        """``UdfError`` reaches callers through the executor, and every
        caller (origin app, gateway) handles the engine's one root: it
        must not be a bare ``Exception`` that becomes a 500."""
        with pytest.raises(RelationalError):
            Executor(origin.catalog).execute(
                parse_select(f"SELECT n.objID FROM {source} n")
            )

    def test_what_a_scalar_rejects_is_an_engine_error(self, origin):
        with pytest.raises(RelationalError):
            Executor(origin.catalog).execute(
                parse_select(
                    "SELECT objID FROM PhotoPrimary "
                    "WHERE flags = fPhotoFlags('NOT_A_FLAG')"
                )
            )


class TestErrors:
    def test_unknown_table(self, execute):
        with pytest.raises(CatalogError):
            execute("SELECT x FROM Missing")

    def test_unknown_select_column(self, execute):
        with pytest.raises(ExecutionError, match="unknown column"):
            execute("SELECT salary FROM Users")


class TestOperatorCounters:
    """The ``executor.*`` profiler stages (hot-path operator counters)."""

    @pytest.fixture()
    def profiled(self, catalog):
        from repro.obs.profiling import Profiler

        profiler = Profiler(top_k=3, clock=lambda: 0.0)
        executor = Executor(catalog, profiler=profiler)

        def run(sql):
            return executor.execute(parse_select(sql))

        return run, profiler

    def test_default_is_noop(self, catalog):
        from repro.obs.profiling import NULL_PROFILER

        assert Executor(catalog).profiler is NULL_PROFILER

    def test_scan_filter_project(self, profiled):
        run, profiler = profiled
        run("SELECT name FROM Users WHERE age > 50")
        scan = profiler.stats("executor.scan")
        assert scan.calls == 1
        assert scan.counters["rows"] == 4
        filt = profiler.stats("executor.filter")
        assert filt.counters["rows_in"] == 4
        assert filt.counters["rows_out"] == 2
        project = profiler.stats("executor.project")
        assert project.counters["rows"] == 2

    def test_join_strategy_counters(self, profiled):
        run, profiler = profiled
        run("SELECT u.name FROM Orders o JOIN Users u ON o.user_id = u.id")
        join = profiler.stats("executor.join")
        assert join.calls == 1
        assert join.counters["pk_lookup"] == 1
        assert join.counters["rows_out"] == 3  # dangling user dropped

    def test_nested_loop_counter(self, profiled):
        run, profiler = profiled
        run("SELECT u.name FROM Orders o JOIN Users u ON o.total > u.age")
        join = profiler.stats("executor.join")
        assert join.counters["nested_loop"] == 1

    def test_aggregate_groups_counter(self, profiled):
        run, profiler = profiled
        run("SELECT city, COUNT(*) AS n FROM Users GROUP BY city")
        agg = profiler.stats("executor.aggregate")
        assert agg.calls == 1
        assert agg.counters["groups"] == 3  # london, arlington, NULL
