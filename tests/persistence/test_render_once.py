"""A cached result is encoded once, however often it is written.

The admit hook encodes it — as its binary table, never as XML — and
keeps the frame; every later checkpoint, cadence or explicit, writes
the kept frames and encodes nothing.  Encodings are counted through
wrappers on the encoders — never timed.
"""

import collections
import json

import pytest

from repro.cluster.handoff import export_records
from repro.core.proxy import FunctionProxy
from repro.persistence import CachePersister
from repro.persistence import persister as persister_module
from repro.relational.result import ResultTable
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


@pytest.fixture()
def calls(monkeypatch):
    """How often each encoder ran."""
    counts = collections.Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for owner, name in (
        (ResultTable, "to_bytes"),
        (ResultTable, "_render_xml"),
        (persister_module, "encode_record"),
        (json, "dumps"),
    ):
        monkeypatch.setattr(
            owner, name, counting(name, getattr(owner, name))
        )
    return counts


def test_admits_encode_each_result_once_and_checkpoints_encode_nothing(
    origin, radial_params, tmp_path, calls, monkeypatch
):
    persister = CachePersister(tmp_path, snapshot_every=4)
    in_checkpoints = collections.Counter()
    checkpoint = CachePersister.checkpoint

    def counted_checkpoint(self):
        before = collections.Counter(calls)
        written = checkpoint(self)
        in_checkpoints.update(calls - before)
        in_checkpoints["checkpoints"] += 1
        return written

    monkeypatch.setattr(CachePersister, "checkpoint", counted_checkpoint)
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
    assert calls["to_bytes"] == admits
    assert calls["_render_xml"] == 0
    # Admits plus evictions crossed the cadence several times, and
    # every one of those checkpoints held entries admitted before it.
    assert persister.total_records // persister.snapshot_every >= 4
    assert persister.checkpoint() == len(proxy.cache) > 1
    # Recovery's repair checkpoint, the cadence ones and the explicit
    # one above: none encoded anything.
    assert in_checkpoints["checkpoints"] >= 5
    assert in_checkpoints == {"checkpoints": in_checkpoints["checkpoints"]}

    # A drain export encodes from the live cache, once per entry.
    exported = export_records(proxy, "shard-a", proxy.clock.now_ms)
    assert calls["to_bytes"] == admits + len(exported)
    assert calls["_render_xml"] == 0


def test_second_to_xml_returns_the_identical_object(origin, radial_params):
    bound = origin.templates.bind(RADIAL_TEMPLATE_ID, radial_params)
    result = origin.execute_bound(bound).result
    assert result.to_xml() is result.to_xml()
