"""The names the wall-clock benchmark wraps and reads still resolve.

``wallbench`` patches layer entry points from outside and reads a few
attributes of the program; a rename breaks it only when it runs.  This
test imports its wrapper table and checks every name in tier 1, then
installs the wrappers around one proxy to check that an exact hit makes
exactly one ``CacheManager.exact_match_pinned`` call.
"""

import pathlib
import sys
from types import SimpleNamespace

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from wallbench import spans  # noqa: E402

from repro.core.proxy import FunctionProxy  # noqa: E402
from repro.core.stats import QueryStatus  # noqa: E402
from repro.relational.result import ResultTable  # noqa: E402
from repro.templates.skyserver_templates import (  # noqa: E402
    RADIAL_TEMPLATE_ID,
)


@pytest.mark.parametrize(
    "owner,attribute",
    [row[:2] for row in spans._ENTRY_POINTS]
    + [(spans.proxy_module, "relate")],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_every_wrapped_entry_point_resolves(owner, attribute):
    assert callable(getattr(owner, attribute))


def test_the_names_wallbench_reads_resolve(origin, radial_params):
    proxy = FunctionProxy(origin, origin.templates)
    bound = origin.templates.bind(RADIAL_TEMPLATE_ID, radial_params)
    response = proxy.serve(bound)
    assert proxy.stats.records == [response.record]
    assert ResultTable.from_xml(response.result.to_xml()) == response.result
    assert proxy.recovery_report is None  # no persister, no recovery
    statement = bound.statement
    assert statement.top is None
    assert not statement.order_by
    assert statement.source.binding_name
    assert statement.select_items


def test_an_exact_hit_calls_exact_match_pinned_once(origin, radial_params):
    proxy = FunctionProxy(origin, origin.templates)
    bound = origin.templates.bind(RADIAL_TEMPLATE_ID, radial_params)
    proxy.serve(bound)
    recorder = spans.SpanRecorder()
    target = SimpleNamespace(proxies=[proxy], apps={})
    with spans.install_wrappers(recorder, target):
        record = proxy.serve(bound).record
    assert spans.wrappers_installed() == []
    assert record.status is QueryStatus.EXACT
    assert recorder.counts["exact_lookups"] == 1
    assert recorder.counts["exact_hits"] == 1
    names = [span[spans.NAME] for span in recorder.spans]
    assert names.count("core.cache.exact") == 1
