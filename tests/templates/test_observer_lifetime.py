"""A template manager's analysis feed does not keep proxies alive.

Every :class:`~repro.core.proxy.FunctionProxy` subscribes its
instrumentation to the shared manager's diagnostics.  A proxy that is
dropped must be collectable — with its registry and decision log —
while a live proxy still counts what is registered after it.
"""

import gc
import weakref

import pytest

from repro.core.proxy import FunctionProxy
from repro.sqlparser.parser import parse_select
from repro.templates.errors import TemplateAnalysisError
from repro.templates.manager import TemplateManager
from repro.templates.query_template import QueryTemplate
from repro.templates.skyserver_templates import (
    radial_function_template,
    radial_query_template,
)

#: Property-4 violation (``cz`` missing): one FP206 error diagnostic.
BAD_SQL = (
    "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.type "
    "FROM fGetNearbyObjEq($ra, $dec, $radius) n "
    "JOIN PhotoPrimary p ON n.objID = p.objID "
    "WHERE p.r BETWEEN $r_min AND $r_max"
)


def radial_manager() -> TemplateManager:
    manager = TemplateManager()
    manager.register_function_template(radial_function_template())
    manager.register_query_template(radial_query_template())
    return manager


def register_bad(manager: TemplateManager, template_id: str) -> None:
    """Register a bad template: refused, its diagnostic still counted."""
    with pytest.raises(TemplateAnalysisError):
        manager.register_query_template(
            QueryTemplate(
                template_id=template_id,
                sql=BAD_SQL,
                statement=parse_select(BAD_SQL),
                function_template=radial_function_template(),
                key_column="objID",
            )
        )


def fp206_count(proxy: FunctionProxy) -> float:
    family = proxy.obs.registry.get("analysis_diagnostics_total")
    return family.labels(code="FP206", severity="error").value


def test_dropped_proxies_are_collected(origin):
    manager = radial_manager()
    instrumentations = []
    for _ in range(50):
        proxy = FunctionProxy(origin, manager)
        instrumentations.append(weakref.ref(proxy.obs))
    del proxy
    gc.collect()
    assert [ref for ref in instrumentations if ref() is not None] == []


def test_live_proxy_still_counts_later_diagnostics(origin):
    manager = radial_manager()
    live = FunctionProxy(origin, manager)
    for _ in range(5):
        FunctionProxy(origin, manager)  # dropped at once
    gc.collect()
    register_bad(manager, "t.late.1")
    register_bad(manager, "t.late.2")
    assert fp206_count(live) == 2
