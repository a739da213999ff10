"""A site decides determinism when it registers a template.

An origin's template manager holds the catalog's function registry, so
registration runs the registry passes (FP209–FP211, FP215) and refuses
what the proxy could not cache soundly; an origin refuses a manager
that holds any other registry.
"""

import dataclasses

import pytest

from repro.server.origin import OriginServer
from repro.templates.errors import TemplateAnalysisError
from repro.templates.manager import TemplateManager
from repro.templates.skyserver_templates import (
    radial_function_template,
    radial_query_template,
)


def test_the_radial_template_without_its_output_rule_is_refused(origin):
    """``fGetNearbyObjEq`` declares ``distance`` query-dependent; the
    Radial template selects it, so its function template needs the
    ``<Output name="distance">`` rule the proxy recomputes it by."""
    bare = dataclasses.replace(radial_function_template(), outputs=())
    template = dataclasses.replace(
        radial_query_template(),
        template_id="t.radial.bare",
        function_template=bare,
    )
    with pytest.raises(TemplateAnalysisError) as refused:
        origin.templates.register_query_template(template)
    assert refused.value.report.codes() == {"FP215"}
    assert "t.radial.bare" not in origin.templates.query_template_ids()


def test_an_origin_refuses_a_manager_without_its_registry(origin):
    with pytest.raises(ValueError, match="function registry"):
        OriginServer(origin.catalog, TemplateManager())
    assert origin.templates.functions is origin.catalog.functions
