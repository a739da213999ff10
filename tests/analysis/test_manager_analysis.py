"""Analyzer wiring at TemplateManager registration: rejection of every
template with an error diagnostic, and the metrics feed."""

import pytest

from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryStatus
from repro.sqlparser.parser import parse_expression, parse_select
from repro.templates.errors import TemplateAnalysisError, TemplateError
from repro.templates.function_template import FunctionTemplate
from repro.templates.manager import TemplateManager
from repro.templates.query_template import QueryTemplate
from repro.templates.skyserver_templates import (
    radial_function_template,
    radial_query_template,
    register_skyserver_templates,
)

#: A property-4 violation: the point attribute ``cz`` is missing from
#: the select list, so cached tuples could not be re-evaluated spatially.
BAD_RADIAL_SQL = (
    "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.type "
    "FROM fGetNearbyObjEq($ra, $dec, $radius) n "
    "JOIN PhotoPrimary p ON n.objID = p.objID "
    "WHERE p.r BETWEEN $r_min AND $r_max"
)

BAD_TEMPLATE_ID = "skyserver.radial.bad"


def unchecked(template_id, sql, function_template, key_column="objID"):
    """A query template built without ``from_sql``'s own check, so
    registration is what meets its faults."""
    return QueryTemplate(
        template_id=template_id,
        sql=sql,
        statement=parse_select(sql),
        function_template=function_template,
        key_column=key_column,
    )


def bad_radial_template() -> QueryTemplate:
    return unchecked(
        BAD_TEMPLATE_ID, BAD_RADIAL_SQL, radial_function_template()
    )


def radial_manager() -> TemplateManager:
    manager = TemplateManager()
    manager.register_function_template(radial_function_template())
    return manager


class TestStrictMode:
    def test_bad_template_rejected_with_code_and_span(self):
        manager = radial_manager()
        with pytest.raises(TemplateAnalysisError) as excinfo:
            manager.register_query_template(bad_radial_template())
        report = excinfo.value.report
        diagnostic = next(d for d in report if d.code == "FP206")
        assert "cz" in diagnostic.message
        assert diagnostic.span is not None
        assert diagnostic.span.source == f"{BAD_TEMPLATE_ID}.sql"
        assert BAD_TEMPLATE_ID not in manager.query_template_ids()

    def test_good_template_registers_clean(self):
        manager = radial_manager()
        manager.register_query_template(radial_query_template())
        assert "skyserver.radial" in manager.query_template_ids()
        assert manager.analysis_diagnostics() == []

    def test_rejection_still_records_diagnostics(self):
        manager = radial_manager()
        with pytest.raises(TemplateAnalysisError):
            manager.register_query_template(bad_radial_template())
        assert any(
            d.code == "FP206" for d in manager.analysis_diagnostics()
        )


    def test_bad_function_template_rejected(self):
        manager = TemplateManager()
        # Point expression reads a $-parameter: FP109, an error.
        broken = FunctionTemplate(
            name="fBroken",
            params=("ra", "r"),
            shape=radial_function_template().shape,
            dims=1,
            center_exprs=(parse_expression("$ra"),),
            radius_expr=parse_expression("$r"),
            point_exprs=(parse_expression("x + $ra"),),
        )
        with pytest.raises(TemplateAnalysisError) as excinfo:
            manager.register_function_template(broken)
        assert any(d.code == "FP109" for d in excinfo.value.report)
        assert list(manager._function_templates.values()) == []

    def test_observers_stream_diagnostics(self):
        manager = radial_manager()
        seen = []
        manager.add_analysis_observer(seen.append)
        with pytest.raises(TemplateAnalysisError):
            manager.register_query_template(bad_radial_template())
        assert [d.code for d in seen] == ["FP206"]


class TestProxyIntegration:
    """The acceptance scenario: the manager refuses a bad template; the
    proxy never serves it and the violation shows up in ``/metrics``."""

    @pytest.fixture()
    def proxy(self, origin):
        manager = TemplateManager()
        register_skyserver_templates(manager)
        with pytest.raises(TemplateAnalysisError):
            manager.register_query_template(bad_radial_template())
        return FunctionProxy(origin, manager)

    def test_rejected_template_is_never_served(self, proxy, radial_params):
        with pytest.raises(TemplateError, match="no query template"):
            proxy.templates.bind(BAD_TEMPLATE_ID, radial_params)
        assert len(proxy.stats) == 0
        assert len(proxy.cache) == 0

    def test_healthy_template_still_caches(self, proxy, radial_params):
        bound = proxy.templates.bind("skyserver.radial", radial_params)
        proxy.serve(bound)
        repeat = proxy.serve(
            proxy.templates.bind("skyserver.radial", radial_params)
        )
        assert repeat.record.status is QueryStatus.EXACT

    def test_violation_visible_in_metrics(self, proxy):
        exposition = proxy.obs.registry.exposition()
        assert "analysis_diagnostics_total" in exposition
        assert 'code="FP206"' in exposition
        assert 'severity="error"' in exposition

    def test_late_registrations_also_counted(self, proxy):
        template = unchecked(
            "t.late", BAD_RADIAL_SQL, radial_function_template(), "nope"
        )
        with pytest.raises(TemplateAnalysisError):
            proxy.templates.register_query_template(template)
        exposition = proxy.obs.registry.exposition()
        assert 'code="FP207"' in exposition
