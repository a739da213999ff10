"""Origin server behaviour."""

import pytest

from repro.relational.errors import ExecutionError, RelationalError
from repro.server.costs import ServerCostModel
from repro.sqlparser.errors import ParseError
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


class TestExecution:
    def test_execute_bound_matches_sql_path(
        self, origin, templates, radial_params
    ):
        bound = templates.bind(RADIAL_TEMPLATE_ID, radial_params)
        via_bound = origin.execute_bound(bound).result
        via_sql = origin.execute_sql(bound.statement.to_sql()).result
        assert via_bound == via_sql

    def test_execute_form(self, origin):
        response = origin.execute_form(
            "Radial", {"ra": "164", "dec": "8", "radius": "10"}
        )
        assert len(response.result) > 0
        assert response.server_ms > 0

    def test_bad_sql_raises_parse_error(self, origin):
        with pytest.raises(ParseError):
            origin.execute_sql("SELEKT nothing")

    def test_unknown_table_raises_relational_error(self, origin):
        with pytest.raises(RelationalError):
            origin.execute_sql("SELECT a FROM NoSuchTable")

    def test_counters_track_remainders(self, origin, templates,
                                        radial_params):
        from repro.core.remainder import build_remainder

        bound = templates.bind(RADIAL_TEMPLATE_ID, radial_params)
        hole = templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, radius=3.0)
        ).region
        before = origin.remainders_served
        remainder = build_remainder(bound, [hole])
        origin.execute_remainder(remainder.statement, 1)
        assert origin.remainders_served == before + 1


class TestNamesResolveBeforeRows:
    """A misspelt column is an error whatever the rows: each clause is
    compiled against the FROM bindings before a row is filtered.  The
    empty-WHERE query used to answer 0 rows, its twin with rows
    ``unknown column 'nosuch'``."""

    @pytest.mark.parametrize("bound", ["objID < 0", "objID < 3"])
    def test_unknown_order_key(self, origin, bound):
        with pytest.raises(ExecutionError, match="unknown column 'nosuch'"):
            origin.execute_sql(
                f"SELECT objID FROM PhotoPrimary WHERE {bound} ORDER BY nosuch"
            )

    def test_ambiguous_name_in_an_empty_join(self, origin):
        with pytest.raises(ExecutionError, match="ambiguous column"):
            origin.execute_sql(
                "SELECT n.objID FROM fGetNearbyObjEq(164, 8, 1) n "
                "JOIN PhotoPrimary p ON n.objID = p.objID "
                "WHERE p.objID < 0 AND ra > 1"
            )


class TestJoinConditions:
    def test_a_nested_loop_condition_calls_a_scalar_udf(self, origin):
        """A join condition compiles with the catalog's UDFs like every
        other clause; it used to run before they were installed in the
        row environments, so ``fPhotoType`` was an unknown function."""
        sql = (
            "SELECT n.objID FROM fGetNearbyObjEq(164, 8, 8) n "
            "JOIN PhotoPrimary p ON n.objID = p.objID AND {} = p.type"
        )
        star = origin.execute_sql(sql.format("fPhotoType('STAR')")).result
        plain = origin.execute_sql(sql.format("6")).result
        assert star.rows == plain.rows and len(plain) > 0


class TestCostModel:
    def test_query_cost_scales_with_tuples(self):
        costs = ServerCostModel(base_ms=100.0, per_tuple_ms=2.0)
        assert costs.query_ms(0) == pytest.approx(100.0)
        assert costs.query_ms(50) == pytest.approx(200.0)

    def test_remainder_costs_more_than_plain(self):
        costs = ServerCostModel()
        assert costs.remainder_ms(10, 1) > costs.query_ms(10)

    def test_remainder_cost_grows_with_holes(self):
        costs = ServerCostModel()
        assert costs.remainder_ms(10, 5) > costs.remainder_ms(10, 1)

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            ServerCostModel(base_ms=-1.0)

    def test_server_charges_remainder_price(
        self, templates, radial_params
    ):
        from repro.core.remainder import build_remainder
        from repro.server.origin import OriginServer
        from tests.conftest import SMALL_SKY

        costly = OriginServer.skyserver(
            SMALL_SKY,
            ServerCostModel(base_ms=10.0, per_tuple_ms=0.0,
                            remainder_surcharge_ms=500.0, per_hole_ms=0.0),
        )
        bound = costly.templates.bind(RADIAL_TEMPLATE_ID, radial_params)
        plain = costly.execute_bound(bound)
        hole = costly.templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, radius=3.0)
        ).region
        remainder = build_remainder(bound, [hole])
        priced = costly.execute_remainder(remainder.statement, 1)
        assert priced.server_ms == pytest.approx(plain.server_ms + 500.0)
