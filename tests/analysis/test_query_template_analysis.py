"""Query-template analysis: the paper's property checks (FP201-FP211,
FP215)."""

import dataclasses

import pytest

from repro.analysis.analyzer import analyze_query_template
from repro.analysis.codes import code_info
from repro.analysis.diagnostics import Severity
from repro.sqlparser.parser import parse_select
from repro.templates.errors import TemplateAnalysisError, TemplateError
from repro.templates.manager import TemplateManager
from repro.templates.query_template import QueryTemplate
from repro.templates.skyserver_templates import (
    nearest_query_template,
    radial_function_template,
    radial_query_template,
    rect_query_template,
)


def build(sql: str, key_column: str = "objID") -> QueryTemplate:
    """An unchecked template (built without ``from_sql``), so bad SQL
    still constructs."""
    return QueryTemplate(
        template_id="t.bad",
        sql=sql,
        statement=parse_select(sql),
        function_template=radial_function_template(),
        key_column=key_column,
    )


GOOD_SQL = (
    "SELECT p.objID, p.cx, p.cy, p.cz "
    "FROM fGetNearbyObjEq($ra, $dec, $radius) n "
    "JOIN PhotoPrimary p ON n.objID = p.objID"
)


class TestPropertyPasses:
    def test_clean_template_has_no_diagnostics(self):
        report = analyze_query_template(build(GOOD_SQL))
        assert len(report) == 0

    def test_fp202_from_is_not_a_function(self):
        report = analyze_query_template(
            build("SELECT p.objID, p.cx, p.cy, p.cz FROM PhotoPrimary p")
        )
        assert report.codes() == {"FP202"}

    def test_fp203_function_name_mismatch(self):
        report = analyze_query_template(
            build(
                "SELECT n.objID, n.cx, n.cy, n.cz "
                "FROM fSomethingElse($ra, $dec, $radius) n"
            )
        )
        assert "FP203" in report.codes()

    def test_fp204_arity_mismatch(self):
        report = analyze_query_template(
            build(
                "SELECT n.objID, n.cx, n.cy, n.cz "
                "FROM fGetNearbyObjEq($ra, $dec) n"
            )
        )
        assert "FP204" in report.codes()

    def test_fp205_non_equi_join(self):
        report = analyze_query_template(
            build(
                "SELECT p.objID, p.cx, p.cy, p.cz "
                "FROM fGetNearbyObjEq($ra, $dec, $radius) n "
                "JOIN PhotoPrimary p ON n.objID < p.objID"
            )
        )
        assert "FP205" in report.codes()

    def test_fp206_missing_point_attribute_with_span(self):
        report = analyze_query_template(
            build(
                "SELECT p.objID, p.cx, p.cy "
                "FROM fGetNearbyObjEq($ra, $dec, $radius) n "
                "JOIN PhotoPrimary p ON n.objID = p.objID"
            )
        )
        diagnostic = next(d for d in report if d.code == "FP206")
        assert "cz" in diagnostic.message
        assert diagnostic.span is not None
        assert diagnostic.span.snippet.lower().startswith("select")

    def test_fp207_missing_key_column(self):
        report = analyze_query_template(
            build(
                "SELECT p.cx, p.cy, p.cz "
                "FROM fGetNearbyObjEq($ra, $dec, $radius) n "
                "JOIN PhotoPrimary p ON n.objID = p.objID"
            )
        )
        assert "FP207" in report.codes()

    def test_fp208_top_n_is_informational(self):
        report = analyze_query_template(nearest_query_template())
        assert report.codes() == {"FP208"}
        assert not report.has_errors

    def test_select_star_exposes_everything(self):
        report = analyze_query_template(
            build("SELECT * FROM fGetNearbyObjEq($ra, $dec, $radius) n")
        )
        assert len(report) == 0


class TestRegistryPasses:
    class Catalog:
        def __init__(self, has=True, deterministic=True):
            self.has = has
            self.deterministic = deterministic

        def has_scalar(self, name):
            return self.has

        def has_table(self, name):
            return self.has

        def is_deterministic(self, name):
            return self.deterministic

    def test_fp209_unregistered_function(self):
        report = analyze_query_template(
            build(GOOD_SQL), registry=self.Catalog(has=False)
        )
        assert "FP209" in report.codes()

    def test_fp210_nondeterministic_function(self):
        report = analyze_query_template(
            build(GOOD_SQL), registry=self.Catalog(deterministic=False)
        )
        assert "FP210" in report.codes()

    def test_clean_against_real_origin_catalog(self, origin):
        report = analyze_query_template(
            radial_query_template(), registry=origin.catalog.functions
        )
        assert len(report) == 0


class TestConstructorFacade:
    """``from_sql`` only parses; registration is the one analysis, and
    its refusal carries the report."""

    def test_registration_rejects_bad_templates(self):
        with pytest.raises(TemplateAnalysisError, match="cz"):
            TemplateManager().register_query_template(
                QueryTemplate.from_sql(
                    template_id="t.bad",
                    sql=(
                        "SELECT p.objID, p.cx, p.cy "
                        "FROM fGetNearbyObjEq($ra, $dec, $radius) n "
                        "JOIN PhotoPrimary p ON n.objID = p.objID"
                    ),
                    function_template=radial_function_template(),
                    key_column="objID",
                )
            )

    def test_analysis_error_carries_the_report(self):
        with pytest.raises(TemplateAnalysisError) as excinfo:
            TemplateManager().register_query_template(
                build(GOOD_SQL.replace("p.cz", "p.type"))
            )
        assert "FP206" in excinfo.value.report.codes()
        assert excinfo.value.subject == "t.bad"

    def test_analysis_error_is_a_template_error(self):
        with pytest.raises(TemplateError):
            TemplateManager().register_query_template(
                build("SELECT p.objID FROM PhotoPrimary p")
            )

    def test_builtin_templates_construct_checked(self, origin):
        manager = TemplateManager(origin.catalog.functions)
        for template in (
            radial_query_template(),
            rect_query_template(),
            nearest_query_template(),
        ):
            manager.register_query_template(template)
        assert len(manager.query_template_ids()) == 3


class TestQueryDependentColumns:
    """FP215 (paper property 4): ``fGetNearbyObjEq`` declares
    ``distance`` query-dependent, so a template selecting it needs the
    function template's ``<Output name="distance">`` rule."""

    @staticmethod
    def without_output_rule():
        """The seeded violation: the Radial templates, minus the rule."""
        bare = dataclasses.replace(radial_function_template(), outputs=())
        return bare, [
            dataclasses.replace(template, function_template=bare)
            for template in (radial_query_template(), nearest_query_template())
        ]

    def test_fp215_radial_without_its_output_rule(self, origin):
        _, templates = self.without_output_rule()
        for template in templates:
            report = analyze_query_template(
                template, registry=origin.catalog.functions
            )
            errors = [
                d for d in report.diagnostics if d.severity is Severity.ERROR
            ]
            assert [d.code for d in errors] == ["FP215"]
            assert "n.distance" in errors[0].message
            assert code_info("FP215").paper_property == 4

    def test_a_computed_distance_has_no_rule(self, origin):
        """The proxy recomputes a bare ``n.distance`` under any alias;
        an expression over it it cannot."""
        for item, codes in (
            ("n.distance AS d", set()),
            ("n.distance * 60.0 AS arcsec", {"FP215"}),
        ):
            report = analyze_query_template(
                build(GOOD_SQL.replace("p.cz ", f"p.cz, {item} ")),
                registry=origin.catalog.functions,
            )
            assert report.codes() == codes
