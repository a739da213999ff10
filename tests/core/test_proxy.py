"""Function proxy dispositions and soundness guards."""

import dataclasses

import pytest

from repro.core.proxy import MAX_HOLES, FunctionProxy
from repro.core.schemes import CachingScheme
from repro.core.stats import QueryStatus
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


@pytest.fixture()
def make_proxy(origin):
    def build(scheme=CachingScheme.FULL_SEMANTIC, **kwargs):
        return FunctionProxy(origin, origin.templates, scheme=scheme,
                             **kwargs)

    return build


@pytest.fixture()
def bind(templates, radial_params):
    def run(**overrides):
        return templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, **overrides)
        )

    return run


def ids(result):
    key = result.schema.position("objID")
    return {row[key] for row in result.rows}


class TestDispositions:
    def test_first_query_is_disjoint_and_cached(self, make_proxy, bind):
        proxy = make_proxy()
        record = proxy.serve(bind()).record
        assert record.status is QueryStatus.DISJOINT
        assert record.contacted_origin
        assert len(proxy.cache) == 1

    def test_repeat_is_exact_hit(self, make_proxy, bind):
        proxy = make_proxy()
        first = proxy.serve(bind())
        second = proxy.serve(bind())
        assert second.record.status is QueryStatus.EXACT
        assert not second.record.contacted_origin
        assert ids(second.result) == ids(first.result)
        assert second.record.cache_efficiency == 1.0

    def test_zoom_in_is_contained_and_not_cached(
        self, make_proxy, bind, origin
    ):
        proxy = make_proxy()
        proxy.serve(bind(radius=15.0))
        inner = bind(radius=6.0)
        response = proxy.serve(inner)
        assert response.record.status is QueryStatus.CONTAINED
        assert not response.record.contacted_origin
        assert ids(response.result) == ids(
            origin.execute_bound(inner).result
        )
        assert len(proxy.cache) == 1  # contained results are not cached

    def test_pan_is_overlap_with_remainder(self, make_proxy, bind, origin):
        proxy = make_proxy()
        proxy.serve(bind(radius=12.0))
        shifted = bind(ra=164.25, radius=12.0)
        response = proxy.serve(shifted)
        assert response.record.status is QueryStatus.OVERLAP
        assert response.record.contacted_origin
        assert ids(response.result) == ids(
            origin.execute_bound(shifted).result
        )
        assert 0.0 < response.record.cache_efficiency < 1.0
        # The merged full-region result was cached.
        assert proxy.cache.exact_match(shifted) is not None

    def test_zoom_out_is_region_containment_with_consolidation(
        self, make_proxy, bind, origin
    ):
        proxy = make_proxy()
        proxy.serve(bind(radius=5.0))
        big = bind(radius=20.0)
        response = proxy.serve(big)
        assert response.record.status is QueryStatus.REGION_CONTAINMENT
        assert ids(response.result) == ids(origin.execute_bound(big).result)
        # The subsumed small entry was removed; only the merged big
        # entry remains.
        assert len(proxy.cache) == 1
        assert proxy.cache.exact_match(big) is not None

    def test_far_query_is_disjoint(self, make_proxy, bind):
        proxy = make_proxy()
        proxy.serve(bind(ra=162.0))
        record = proxy.serve(bind(ra=166.5)).record
        assert record.status is QueryStatus.DISJOINT


class TestEvictionRace:
    """A candidate evicted between the description probe and local
    evaluation still answers the query: an entry carries its own
    result, so an evicted entry still holds exactly the rows its region
    selected."""

    def test_candidate_evicted_after_the_probe_answers_contained(
        self, make_proxy, bind, origin
    ):
        proxy = make_proxy()
        proxy.serve(bind(radius=20.0))
        description = proxy.cache.description
        probe = description.candidates

        def evict_after_probe(template_id, region):
            candidates, probe_ms = probe(template_id, region)
            for entry in candidates:
                proxy.cache.remove(entry)
            return candidates, probe_ms

        description.candidates = evict_after_probe
        inner = bind(radius=10.0)
        response = proxy.serve(inner)
        assert response.record.status is QueryStatus.CONTAINED
        assert not response.record.contacted_origin
        assert len(proxy.cache) == 0
        expected = origin.execute_bound(inner).result.rows
        assert expected
        assert sorted(response.result.rows) == sorted(expected)


class TestSchemeDegradation:
    def test_passive_only_hits_exact(self, make_proxy, bind):
        proxy = make_proxy(scheme=CachingScheme.PASSIVE)
        proxy.serve(bind(radius=15.0))
        inner = proxy.serve(bind(radius=6.0))
        assert inner.record.status is QueryStatus.FORWARDED
        repeat = proxy.serve(bind(radius=15.0))
        assert repeat.record.status is QueryStatus.EXACT

    def test_no_cache_never_caches(self, make_proxy, bind):
        proxy = make_proxy(scheme=CachingScheme.NO_CACHE)
        proxy.serve(bind())
        record = proxy.serve(bind()).record
        assert record.status is QueryStatus.NO_CACHE
        assert len(proxy.cache) == 0

    def test_containment_only_forwards_overlap(
        self, make_proxy, bind, origin
    ):
        proxy = make_proxy(scheme=CachingScheme.CONTAINMENT_ONLY)
        proxy.serve(bind(radius=12.0))
        shifted = bind(ra=164.25, radius=12.0)
        response = proxy.serve(shifted)
        assert response.record.status is QueryStatus.FORWARDED
        assert ids(response.result) == ids(
            origin.execute_bound(shifted).result
        )

    def test_second_scheme_handles_zoom_out_but_not_pan(
        self, make_proxy, bind
    ):
        proxy = make_proxy(scheme=CachingScheme.REGION_CONTAINMENT)
        proxy.serve(bind(radius=5.0))
        zoom_out = proxy.serve(bind(radius=18.0))
        assert zoom_out.record.status is QueryStatus.REGION_CONTAINMENT
        pan = proxy.serve(bind(ra=164.4, radius=18.0))
        assert pan.record.status is QueryStatus.FORWARDED


class TestSoundnessGuards:
    def test_different_signature_is_not_compared(self, make_proxy, bind):
        proxy = make_proxy()
        proxy.serve(bind(radius=15.0, r_min=18.0, r_max=20.0))
        # Same region subset, but different magnitude filter: the cached
        # entry misses tuples outside [18, 20], so containment answering
        # would be wrong.  The proxy must treat it as a miss.
        response = proxy.serve(bind(radius=6.0))
        assert response.record.status in (
            QueryStatus.DISJOINT, QueryStatus.FORWARDED,
        )
        assert response.record.contacted_origin

    def test_same_narrowed_signature_is_compared(
        self, make_proxy, bind, origin
    ):
        proxy = make_proxy()
        narrowed = dict(r_min=18.0, r_max=20.0)
        proxy.serve(bind(radius=15.0, **narrowed))
        inner = bind(radius=6.0, **narrowed)
        response = proxy.serve(inner)
        assert response.record.status is QueryStatus.CONTAINED
        assert ids(response.result) == ids(
            origin.execute_bound(inner).result
        )

    def test_an_overlap_uses_at_most_max_holes_entries(
        self, make_proxy, bind, origin
    ):
        proxy = make_proxy()
        # Twenty small cached circles, 3 arcmin apart, all inside the
        # 60 arcmin query below.
        for k in range(20):
            proxy.serve(bind(ra=163.5 + 0.05 * k, radius=0.5))
        assert len(proxy.cache) == 20
        outer = bind(radius=60.0)
        response = proxy.serve(outer)
        assert response.record.status is QueryStatus.REGION_CONTAINMENT
        trace = proxy.obs.decisions.get(response.record.index)
        assert trace.remainder.n_holes == MAX_HOLES == 16
        assert ids(response.result) == ids(
            origin.execute_bound(outer).result
        )

    def test_nondeterministic_function_is_refused_at_registration(
        self, origin
    ):
        """Paper property 1 is decided once, by the site's manager: a
        template over a non-deterministic function never registers, so
        no query over it reaches a proxy, let alone its cache."""
        from repro.sqlparser.parser import parse_expression
        from repro.templates.errors import TemplateAnalysisError
        from repro.templates.function_template import FunctionTemplate, Shape
        from repro.templates.manager import TemplateManager
        from repro.templates.query_template import QueryTemplate

        # A fresh manager over the site's functions: the session-shared
        # one would keep this refusal's diagnostics for later tests.
        manager = TemplateManager(origin.catalog.functions)
        ftemplate = FunctionTemplate(
            name="fRandomSample",
            params=("count",),
            shape=Shape.HYPERRECT,
            dims=2,
            point_exprs=(
                parse_expression("ra"), parse_expression("dec"),
            ),
            low_exprs=(
                parse_expression("0"), parse_expression("0"),
            ),
            high_exprs=(
                parse_expression("$count"), parse_expression("$count"),
            ),
        )
        template = QueryTemplate.from_sql(
            "t.random",
            "SELECT objID, ra, dec FROM fRandomSample($count) n",
            ftemplate,
            key_column="objID",
        )
        with pytest.raises(TemplateAnalysisError) as refused:
            manager.register_query_template(template)
        assert refused.value.report.codes() == {"FP210"}
        assert "t.random" not in manager.query_template_ids()

    def test_the_proxy_never_reads_the_origin_catalog(
        self, origin, bind
    ):
        """The serve path asks nothing of the origin's functions: an
        origin with no ``catalog`` serves, and its answers are cached."""

        class CatalogFree:
            def __getattr__(self, name):
                if name == "catalog":
                    raise AttributeError(name)
                return getattr(origin, name)

        proxy = FunctionProxy(CatalogFree(), origin.templates)
        first = proxy.serve(bind())
        second = proxy.serve(bind())
        assert first.record.status is QueryStatus.DISJOINT
        assert second.record.status is QueryStatus.EXACT
        assert len(proxy.cache) == 1

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_function_argument_is_a_structured_failure(
        self, make_proxy, bind, bad
    ):
        """``bind`` refuses a non-finite parameter; a hand-built bound
        query is the one way past it.  The origin's executor is the
        second layer, and ``serve`` still never raises."""
        from repro.core.stats import QueryOutcome
        from repro.relational.expressions import Literal
        from repro.templates.manager import BoundQuery

        good = bind()
        forged = BoundQuery(
            template=good.template,
            params=dict(good.params, ra=bad),
            function_params=dict(good.function_params, ra=bad),
            region=good.region,
            signature=good.signature,
        )
        # The statement the origin is sent carries the forged argument.
        first = forged.statement.source.args[0]
        assert isinstance(first, Literal) and first.value is bad
        proxy = make_proxy()
        response = proxy.serve(forged)
        assert response.record.outcome is QueryOutcome.FAILED
        assert response.record.failure_reason == "query-error"
        assert len(proxy.cache) == 0
        assert proxy.serve(good).record.outcome is QueryOutcome.SERVED

    def test_a_math_overflow_at_the_origin_is_a_structured_failure(
        self, origin, make_proxy, radial_params
    ):
        """An ``ORDER BY`` key that overflows used to escape ``serve``
        as a bare ``OverflowError``."""
        from repro.core.stats import QueryOutcome
        from repro.templates.query_template import QueryTemplate
        from repro.templates.skyserver_templates import (
            RADIAL_SQL,
            radial_function_template,
        )

        origin.templates.register_query_template(
            QueryTemplate.from_sql(
                "t.overflow",
                RADIAL_SQL + " ORDER BY exp(p.r * 1000.0)",
                radial_function_template(),
                key_column="objID",
            )
        )
        try:
            proxy = make_proxy()
            bound = origin.templates.bind("t.overflow", radial_params)
            record = proxy.serve(bound).record
            assert record.outcome is QueryOutcome.FAILED
            assert record.failure_reason == "query-error"
            assert len(proxy.cache) == 0
        finally:
            # Keep the session-scoped origin clean for other tests.
            origin.templates._query_templates.pop("t.overflow")

    def test_a_cone_past_180_degrees_is_refused_and_never_cached(
        self, make_proxy, bind, origin, radial_params
    ):
        """The radial template's chord ``2 sin(r / 2)`` folds back past
        180 degrees: ``radius=21600`` would bind to a region of radius
        2.4e-16.  Cached under it, the whole sky would be copied —
        "fully subsumed", untested — into every later query at that
        centre and labelled ``served``.  The template declares the
        radius it can describe, so binding refuses (guard 8); for a
        site whose template does not, the function's own refusal still
        keeps the answer out of the cache (guard 7)."""
        from repro.core.stats import QueryOutcome
        from repro.templates.errors import TemplateError
        from repro.templates.manager import TemplateManager
        from repro.templates.skyserver_templates import (
            radial_query_template,
        )

        with pytest.raises(TemplateError, match=r"\$radius=21600"):
            bind(radius=21600.0)

        declared = radial_query_template()
        undeclared = TemplateManager()
        undeclared.register_query_template(
            dataclasses.replace(
                declared,
                function_template=dataclasses.replace(
                    declared.function_template, domains=()
                ),
            )
        )
        proxy = make_proxy()
        folded = undeclared.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, radius=21600.0)
        )
        record = proxy.serve(folded).record
        assert record.outcome is QueryOutcome.FAILED
        assert record.failure_reason == "query-error"
        assert len(proxy.cache) == 0
        small = bind(radius=1.0)
        response = proxy.serve(small)
        assert response.record.outcome is QueryOutcome.SERVED
        assert response.result.rows == origin.execute_bound(small).result.rows

    def test_what_the_function_rejects_is_a_structured_failure(
        self, make_proxy, templates
    ):
        """An inverted rectangle binds (the region is merely empty);
        the site's function refuses it, and ``serve`` never raises."""
        from repro.core.stats import QueryOutcome
        from repro.templates.skyserver_templates import RECT_TEMPLATE_ID

        proxy = make_proxy()
        inverted = templates.bind(
            RECT_TEMPLATE_ID,
            {
                "ra_min": 165.0, "ra_max": 163.0,
                "dec_min": 7.0, "dec_max": 9.0,
                "r_min": -9999.0, "r_max": 9999.0,
            },
        )
        record = proxy.serve(inverted).record
        assert record.outcome is QueryOutcome.FAILED
        assert record.failure_reason == "query-error"
        assert record.retries == 0
        assert len(proxy.cache) == 0

    def test_cache_budget_is_respected(self, make_proxy, bind):
        proxy = make_proxy(cache_bytes=6_000)
        for i in range(8):
            proxy.serve(bind(ra=162.0 + i * 0.6, radius=12.0))
        assert proxy.cache.current_bytes <= 6_000

    def test_timing_steps_recorded(self, make_proxy, bind):
        proxy = make_proxy()
        record = proxy.serve(bind()).record
        assert "parse" in record.steps_ms
        assert "origin" in record.steps_ms
        assert record.response_ms == pytest.approx(
            sum(record.steps_ms.values())
        )

    def test_check_wall_time_is_measured(self, make_proxy, bind):
        proxy = make_proxy()
        proxy.serve(bind(ra=162.5))
        record = proxy.serve(bind(ra=165.5)).record
        assert record.check_wall_ms >= 0.0
