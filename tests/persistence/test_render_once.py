"""A cached result's XML is rendered once, however often it is written.

The journal append renders it; every later checkpoint that still holds
the entry, an explicit checkpoint and a handoff export must reuse that
string.  Renders are counted through a wrapper on the renderer — never
timed.
"""

import pytest

from repro.cluster.handoff import export_records
from repro.core.proxy import FunctionProxy
from repro.persistence import CachePersister
from repro.relational.result import ResultTable
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


@pytest.fixture()
def rendered(monkeypatch):
    """Every table the renderer ran for, in order (held, so a recycled
    ``id`` cannot hide a second render)."""
    tables = []
    render = ResultTable._render_xml

    def counting(table):
        tables.append(table)
        return render(table)

    monkeypatch.setattr(ResultTable, "_render_xml", counting)
    return tables


def test_admits_checkpoints_and_export_render_each_result_once(
    origin, radial_params, tmp_path, rendered
):
    persister = CachePersister(tmp_path, snapshot_every=4)
    proxy = FunctionProxy(
        origin, origin.templates, cache_bytes=12_000, persistence=persister
    )
    admits = 14
    for step in range(admits):
        bound = origin.templates.bind(
            RADIAL_TEMPLATE_ID,
            dict(radial_params, ra=161.0 + 0.45 * step, radius=6.0),
        )
        assert proxy.serve(bound).record.contacted_origin

    assert proxy.cache.evictions > 0
    # Admits plus evictions crossed the cadence several times, and
    # every one of those checkpoints held entries admitted before it.
    assert persister.total_records // persister.snapshot_every >= 4
    snapshot = persister.checkpoint()
    exported = export_records(proxy, "shard-a", proxy.clock.now_ms)
    live = sorted(proxy.cache.entries(), key=lambda e: e.entry_id)
    assert len(live) > 1

    assert len(rendered) == admits
    assert len({id(table) for table in rendered}) == admits
    # The snapshot and the export hand out the very string admit made.
    for entry, in_snapshot, in_export in zip(live, snapshot.entries, exported):
        assert in_snapshot.result_xml is entry.result.to_xml()
        assert in_export.result_xml is entry.result.to_xml()
    assert len(rendered) == admits


def test_second_to_xml_returns_the_identical_object(origin, radial_params):
    bound = origin.templates.bind(RADIAL_TEMPLATE_ID, radial_params)
    result = origin.execute_bound(bound).result
    assert result.to_xml() is result.to_xml()
