"""``GET /analyze`` on both Flask apps."""

import pytest

flask = pytest.importorskip("flask")

from repro.core.proxy import FunctionProxy
from repro.server.origin import OriginServer
from repro.sqlparser.parser import parse_select
from repro.templates.errors import TemplateAnalysisError
from repro.templates.manager import TemplateManager
from repro.templates.query_template import QueryTemplate
from repro.templates.skyserver_templates import (
    radial_function_template,
    register_skyserver_templates,
)
from repro.webapp.origin_app import create_origin_app
from repro.webapp.proxy_app import create_proxy_app
from tests.conftest import SMALL_SKY


@pytest.fixture(scope="module")
def own_origin():
    """An origin of its own: ``/analyze`` serves every diagnostic its
    manager's registrations recorded, so the shared origin would also
    list what other tests tried to register there."""
    return OriginServer.skyserver(SMALL_SKY)


@pytest.fixture()
def origin_client(own_origin):
    return create_origin_app(own_origin).test_client()


class TestOriginAnalyze:
    def test_builtin_templates_report_no_errors(self, origin_client):
        payload = origin_client.get("/analyze").get_json()
        assert payload["errors"] == 0
        # The nearest template's TOP 1 shows up as informational.
        codes = {d["code"] for d in payload["diagnostics"]}
        assert codes == {"FP208"}

    def test_diagnostics_carry_spans(self, origin_client):
        payload = origin_client.get("/analyze").get_json()
        (diagnostic,) = payload["diagnostics"]
        assert diagnostic["severity"] == "info"
        assert diagnostic["span"]["source"] == "skyserver.nearest.sql"


class TestProxyAnalyze:
    def test_clean_proxy_reports_no_errors(self, own_origin):
        client = create_proxy_app(
            FunctionProxy(own_origin, own_origin.templates)
        ).test_client()
        payload = client.get("/analyze").get_json()
        assert payload["errors"] == 0
        assert "degraded_templates" not in payload

    def test_refused_template_is_reported(self, origin):
        """``/analyze`` serves what registration recorded, so a refused
        template's diagnostics are listed although it is not registered."""
        manager = TemplateManager()
        register_skyserver_templates(manager)
        sql = (
            "SELECT p.objID, p.cx, p.cy "
            "FROM fGetNearbyObjEq($ra, $dec, $radius) n "
            "JOIN PhotoPrimary p ON n.objID = p.objID"
        )
        with pytest.raises(TemplateAnalysisError, match="FP206"):
            manager.register_query_template(
                QueryTemplate(
                    template_id="t.bad",
                    sql=sql,
                    statement=parse_select(sql),
                    function_template=radial_function_template(),
                    key_column="objID",
                )
            )
        client = create_proxy_app(
            FunctionProxy(origin, manager)
        ).test_client()
        payload = client.get("/analyze").get_json()
        assert payload["errors"] == 1
        (refusal,) = [
            d for d in payload["diagnostics"] if d["severity"] == "error"
        ]
        assert refusal["code"] == "FP206"
        assert refusal["subject"] == "t.bad"
        assert "t.bad" not in manager.query_template_ids()
