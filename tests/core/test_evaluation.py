"""Local evaluation over cached results."""

import pytest

from repro.core.cache import CacheManager
from repro.core.description import ArrayDescription
from repro.core.evaluation import LocalEvaluator
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


@pytest.fixture()
def store(templates, origin, radial_params):
    cache = CacheManager(ArrayDescription())

    def run(**overrides):
        params = dict(radial_params, **overrides)
        bound = templates.bind(RADIAL_TEMPLATE_ID, params)
        result = origin.execute_bound(bound).result
        entry, _ = cache.store(bound, result, "sig", False)
        return bound, entry

    return run


@pytest.fixture()
def evaluator():
    return LocalEvaluator()


class TestSelectInRegion:
    def test_subset_matches_origin(
        self, store, evaluator, templates, origin, radial_params
    ):
        _big_bound, big_entry = store(radius=20.0)
        small = templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, radius=8.0)
        )
        outcome = evaluator.select_in_region(small, [big_entry], ())
        expected = origin.execute_bound(small).result
        key = expected.schema.position("objID")
        assert {r[key] for r in outcome.result.rows} == {
            r[key] for r in expected.rows
        }
        assert outcome.tuples_read == len(big_entry.result)

    def test_subsumed_entry_skips_per_tuple_test(
        self, store, evaluator, templates, radial_params
    ):
        _small_bound, small_entry = store(radius=5.0)
        big = templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, radius=20.0)
        )
        outcome = evaluator.select_in_region(
            big, [small_entry], {small_entry.entry_id}
        )
        assert outcome.tuples_evaluated == 0
        assert len(outcome.result) == len(small_entry.result)

    def test_overlapping_entry_is_filtered(
        self, store, evaluator, templates, radial_params
    ):
        _bound, entry = store(radius=12.0)
        shifted = templates.bind(
            RADIAL_TEMPLATE_ID,
            dict(radial_params, ra=radial_params["ra"] + 0.25),
        )
        outcome = evaluator.select_in_region(shifted, [entry], ())
        assert outcome.tuples_evaluated == len(entry.result)
        names = [n.lower() for n in outcome.result.column_names]
        at = [names.index(axis) for axis in ("cx", "cy", "cz")]
        for row in outcome.result.rows:
            assert shifted.region.contains_point(tuple(row[i] for i in at))

    def test_multiple_entries_deduplicate(
        self, store, evaluator, templates, radial_params
    ):
        _b1, e1 = store(radius=10.0)
        _b2, e2 = store(radius=10.0, ra=radial_params["ra"] + 0.05)
        big = templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, radius=25.0)
        )
        outcome = evaluator.select_in_region(
            big, [e1, e2], {e1.entry_id, e2.entry_id}
        )
        key = outcome.result.schema.position("objID")
        ids = [row[key] for row in outcome.result.rows]
        assert len(ids) == len(set(ids))

    def test_no_entries_raises(self, evaluator, templates, radial_params):
        bound = templates.bind(RADIAL_TEMPLATE_ID, radial_params)
        with pytest.raises(ValueError):
            evaluator.select_in_region(bound, [], ())


class TestFinalize:
    def test_applies_order_and_top(
        self, evaluator, templates, origin, radial_params
    ):
        from repro.templates.query_template import QueryTemplate
        from repro.templates.skyserver_templates import (
            RADIAL_SQL,
            radial_function_template,
        )

        ordered_template = QueryTemplate.from_sql(
            "radial.ordered",
            "SELECT TOP 5 " + RADIAL_SQL[len("SELECT "):] + (
                " ORDER BY n.distance"
            ),
            radial_function_template(),
            key_column="objID",
        )
        from repro.templates.manager import BoundQuery

        function_params, region, signature = ordered_template.binder(
            radial_params
        )
        bq = BoundQuery(
            template=ordered_template,
            params=dict(radial_params),
            function_params=function_params,
            region=region,
            signature=signature,
        )
        raw = origin.execute_bound(
            templates.bind(RADIAL_TEMPLATE_ID, radial_params)
        ).result
        final = evaluator.finalize(bq, raw)
        assert len(final) <= 5
        distances = final.column_values("distance")
        assert distances == sorted(distances)
