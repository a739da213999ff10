"""Warm handoff: export, replay, fencing."""

from __future__ import annotations

import pytest

from repro.cluster import (
    encode_handoff,
    export_records,
    persisted_records,
    replay_records,
)
from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryStatus
from repro.persistence import CachePersister
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


@pytest.fixture()
def warm_proxy(origin, bind):
    """A proxy with two distinct cached radial results."""
    proxy = FunctionProxy(origin, origin.templates)
    proxy.serve(bind())
    proxy.serve(bind(ra=166.0, radius=2.0))
    assert len(proxy.cache.entries()) == 2
    return proxy


class TestExport:
    def test_live_export_is_tagged_and_ordered(self, warm_proxy):
        records = export_records(warm_proxy, "shard-a", 1_000.0)
        assert len(records) == 2
        assert [r.entry_id for r in records] == sorted(
            r.entry_id for r in records
        )
        for record in records:
            assert record.shard == "shard-a"
            assert record.template_id == RADIAL_TEMPLATE_ID
            assert record.data_version == warm_proxy.origin.data_version

    def test_export_deterministic(self, warm_proxy):
        first = encode_handoff(
            export_records(warm_proxy, "shard-a", 1_000.0)
        )
        second = encode_handoff(
            export_records(warm_proxy, "shard-a", 1_000.0)
        )
        assert first == second


class TestReplay:
    def test_replay_restores_exact_hits(self, origin, warm_proxy, bind):
        records = export_records(warm_proxy, "shard-a", 1_000.0)
        successor = FunctionProxy(origin, origin.templates)
        report = replay_records(
            records, successor, source="shard-a", target="shard-b"
        )
        assert report.entries == 2
        assert report.replayed == 2
        assert report.stale == report.errors == report.rejected == 0
        # The successor now answers without the origin.
        response = successor.serve(bind())
        assert response.record.status is QueryStatus.EXACT
        assert not response.record.contacted_origin

    def test_foreign_tag_is_accepted_by_replay(self, origin, warm_proxy):
        """Replay (unlike recovery) takes records tagged with another
        shard's id: the successor stores them as its own."""
        records = export_records(warm_proxy, "shard-a", 1_000.0)
        assert all(r.shard == "shard-a" for r in records)
        successor = FunctionProxy(origin, origin.templates)
        report = replay_records(
            records, successor, source="shard-a", target="shard-b"
        )
        assert report.replayed == len(records)

    def test_version_fence_drops_stale_entries(self, origin, warm_proxy):
        records = export_records(warm_proxy, "shard-a", 1_000.0)
        successor = FunctionProxy(origin, origin.templates)
        origin.bump_data_version()
        report = replay_records(
            records, successor, source="shard-a", target="shard-b"
        )
        assert report.stale == len(records)
        assert report.replayed == 0
        assert len(successor.cache.entries()) == 0

    def test_malformed_record_never_aborts(self, origin, warm_proxy):
        records = export_records(warm_proxy, "shard-a", 1_000.0)
        broken = records[0].__class__(
            **{
                **records[0].__dict__,
                "template_id": "no.such.template",
            }
        )
        successor = FunctionProxy(origin, origin.templates)
        report = replay_records(
            (broken, records[1]),
            successor,
            source="shard-a",
            target="shard-b",
        )
        assert report.errors == 1
        assert report.replayed == 1

    def test_successor_rejournals_under_its_own_id(
        self, origin, warm_proxy, tmp_path
    ):
        records = export_records(warm_proxy, "shard-a", 1_000.0)
        successor = FunctionProxy(
            origin,
            origin.templates,
            persistence=CachePersister(tmp_path / "b", shard_id="shard-b"),
        )
        replay_records(
            records, successor, source="shard-a", target="shard-b"
        )
        journaled = persisted_records(successor.persistence)
        assert len(journaled) == len(records)
        assert all(r.shard == "shard-b" for r in journaled)


class TestPersistedRecords:
    def test_image_follows_the_journal(self, origin, bind, tmp_path):
        proxy = FunctionProxy(
            origin,
            origin.templates,
            persistence=CachePersister(tmp_path, shard_id="shard-a"),
        )
        proxy.serve(bind())
        proxy.serve(bind(ra=166.0, radius=2.0))
        image = persisted_records(proxy.persistence)
        assert len(image) == 2
        assert all(r.shard == "shard-a" for r in image)
        # A clear empties the durable image too.
        proxy.cache.clear()
        assert persisted_records(proxy.persistence) == ()
