"""Persistence wired through the full proxy: warm restarts, crashes,
version fencing against a live origin, and the observability surface."""

import json
import struct
import zlib

import pytest

from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryStatus
from repro.faults.crash import CrashPlan
from repro.faults.plan import FaultPlan
from repro.obs import ProxyInstrumentation
from repro.persistence import CachePersister, region_to_dict
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


def build_proxy(origin, directory, **kwargs):
    return FunctionProxy(
        origin,
        origin.templates,
        persistence=CachePersister(directory),
        **kwargs,
    )


@pytest.fixture()
def bind(origin, radial_params):
    def run(**overrides):
        return origin.templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, **overrides)
        )

    return run


class TestProxyWarmRestart:
    def test_restart_turns_a_miss_into_an_exact_hit(
        self, origin, tmp_path, bind
    ):
        first = build_proxy(origin, tmp_path)
        assert first.recovery_report.clean
        assert first.serve(bind()).record.contacted_origin
        restarted = build_proxy(origin, tmp_path)
        assert restarted.recovery_report.entries_restored == 1
        response = restarted.serve(bind())
        assert response.record.status is QueryStatus.EXACT
        assert not response.record.contacted_origin
        assert response.result.to_xml() == (
            origin.execute_bound(bind()).result.to_xml()
        )

    def test_no_persister_means_no_report(self, origin):
        proxy = FunctionProxy(origin, origin.templates)
        assert proxy.persistence is None
        assert proxy.recovery_report is None

    def test_version_bump_fences_the_restart(self, origin, tmp_path, bind):
        warm = build_proxy(origin, tmp_path)
        warm.serve(bind())
        origin.bump_data_version()
        try:
            restarted = build_proxy(origin, tmp_path)
            report = restarted.recovery_report
            assert report.entries_stale == 1
            assert report.entries_restored == 0
            assert restarted.serve(bind()).record.contacted_origin
        finally:
            # The origin fixture is session-scoped; put its version back.
            origin.data_version -= 1


class TestAdmissionVersion:
    """Every record carries the version its entry was admitted under,
    never one the origin moved to while nobody was looking."""

    def test_a_bump_due_mid_query_leaves_the_entry_stale(
        self, origin, tmp_path, bind
    ):
        version = origin.data_version
        proxy = build_proxy(origin, tmp_path)
        proxy.install_fault_plan(
            FaultPlan(version_bumps=(proxy.clock.now_ms + 0.001,))
        )
        try:
            proxy.serve(bind())
            (record,) = proxy.persistence.journal.read().records
            assert record.data_version == proxy.seen_data_version == version
            # The bump came due while the query ran.
            assert proxy.origin_data_version() == version + 1
            report = build_proxy(origin, tmp_path).recovery_report
            assert report.entries_stale == 1
            assert report.entries_restored == 0
        finally:
            # The origin fixture is session-scoped; put its version back.
            origin.data_version = version

    def test_a_checkpoint_after_an_unnoticed_bump_keeps_the_version(
        self, origin, tmp_path, bind
    ):
        version = origin.data_version
        proxy = build_proxy(origin, tmp_path)
        proxy.serve(bind())
        origin.bump_data_version()
        try:
            proxy.persistence.checkpoint()
            (record,) = proxy.persistence.load_snapshot()
            assert record.data_version == version
            report = build_proxy(origin, tmp_path).recovery_report
            assert report.entries_stale == 1
            assert report.entries_restored == 0
        finally:
            origin.data_version = version


class TestRestarts:
    def test_two_restarts_without_traffic_restore_the_same_entries(
        self, origin, tmp_path, bind
    ):
        first = build_proxy(origin, tmp_path)
        for ra in (162.0, 164.0, 166.0):
            first.serve(bind(ra=ra))
        keys = {entry.cache_key for entry in first.cache.entries()}
        for _ in range(2):
            restarted = build_proxy(origin, tmp_path)
            assert restarted.recovery_report.entries_restored == 3
            assert {e.cache_key for e in restarted.cache.entries()} == keys

    def test_a_version_1_directory_restarts_cold_and_is_rewritten(
        self, origin, tmp_path, bind
    ):
        # A directory as the version-1 persister left it: a JSON
        # snapshot document beside a journal of version-1 frames, whose
        # admits carried their result as XML.
        result = origin.execute_bound(bind()).result
        (tmp_path / "journal.bin").write_bytes(
            old_admit_frame(bind(), 1, result_xml=result.to_xml())
        )
        (tmp_path / "snapshot.json").write_text(
            json.dumps({"format": 1, "entries": []})
        )
        assert_restarts_cold_and_is_rewritten(
            origin, tmp_path, bind, result, version=1
        )

    def test_a_version_2_directory_restarts_cold_and_is_rewritten(
        self, origin, tmp_path, bind
    ):
        # A directory as the version-2 persister left it: a snapshot
        # and a journal of JSON admit frames, whose results were typed
        # JSON rows.
        result = origin.execute_bound(bind()).result
        rows = {
            "columns": [[c.name, c.type.value] for c in result.schema],
            "rows": [list(row) for row in result.rows],
        }
        other = bind(ra=166.0)
        (tmp_path / "snapshot.bin").write_bytes(
            old_admit_frame(bind(), 2, entry_id=1, result=rows)
        )
        (tmp_path / "journal.bin").write_bytes(
            old_admit_frame(other, 2, entry_id=2, result=rows)
        )
        report = assert_restarts_cold_and_is_rewritten(
            origin, tmp_path, bind, result, version=2
        )
        assert not report.snapshot_loaded
        assert "unsupported wire format version 2" in report.snapshot_error


def old_admit_frame(bound, version, entry_id=1, **result):
    """One admit frame of an earlier wire version: JSON throughout."""
    payload = json.dumps(
        {
            "type": "admit", "v": version, "entry_id": entry_id,
            "template_id": RADIAL_TEMPLATE_ID,
            "params": dict(bound.params),
            "region": region_to_dict(bound.region),
            "signature": bound.signature, "truncated": False,
            "data_version": 1, "ts_ms": 0.0,
            **result,
        },
        sort_keys=True,
    ).encode()
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def assert_restarts_cold_and_is_rewritten(
    origin, directory, bind, result, version
):
    proxy = build_proxy(origin, directory)
    report = proxy.recovery_report
    assert report.stop_reason == "corrupt"
    assert f"unsupported wire format version {version}" in report.stop_detail
    assert report.entries_restored == 0
    assert len(proxy.cache) == 0
    # The repair checkpoint left a current-version directory behind.
    assert proxy.persistence.journal.size_bytes == 0
    assert proxy.persistence.load_snapshot() == ()
    proxy.serve(bind())
    (admit,) = proxy.persistence.journal.read().records
    assert admit.result == result.to_bytes()
    restarted = build_proxy(origin, directory)
    assert restarted.recovery_report.clean
    assert restarted.recovery_report.entries_restored == 1
    return report


class TestProxyCrash:
    def test_a_crash_after_serving_tears_only_the_last_append(
        self, origin, tmp_path, bind
    ):
        proxy = build_proxy(origin, tmp_path)
        proxy.serve(bind())
        proxy.serve(bind(ra=166.0))
        # The crash model: the proxy stops, its last append is torn,
        # and a fresh process recovers the intact prefix.
        CrashPlan(seed=5).apply_damage(proxy.persistence.journal.path)
        restarted = build_proxy(origin, tmp_path)
        report = restarted.recovery_report
        assert report.stop_reason == "torn"
        assert report.entries_restored == 1


class TestObservability:
    def test_journal_and_recovery_metrics(self, origin, tmp_path, bind):
        warm = build_proxy(origin, tmp_path)
        warm.serve(bind())
        warm.serve(bind(ra=166.0))
        obs = ProxyInstrumentation()
        restarted = FunctionProxy(
            origin,
            origin.templates,
            persistence=CachePersister(tmp_path),
            instrumentation=obs,
        )
        assert restarted.recovery_report.entries_restored == 2
        text = obs.registry.exposition()
        assert (
            'journal_records_total{type="admit",direction="replay"} 2'
            in text
        )
        assert 'recovery_entries_total{disposition="restored"} 2' in text
        assert "snapshot_age_seconds" in text


flask = pytest.importorskip("flask")

from repro.webapp.proxy_app import create_proxy_app  # noqa: E402


class TestPersistenceEndpoint:
    def test_disabled_when_proxy_has_no_persister(self, origin):
        client = create_proxy_app(
            FunctionProxy(origin, origin.templates)
        ).test_client()
        payload = client.get("/persistence").get_json()
        assert payload == {
            "enabled": False,
            "reason": "proxy was built without a persister",
        }

    def test_status_and_recovery_shape(self, origin, tmp_path, bind):
        warm = build_proxy(origin, tmp_path)
        warm.serve(bind())
        restarted = build_proxy(origin, tmp_path)
        payload = (
            create_proxy_app(restarted)
            .test_client()
            .get("/persistence")
            .get_json()
        )
        assert payload["enabled"] is True
        assert payload["journal"]["size_bytes"] == 0  # post-recovery ckpt
        assert payload["snapshot"]["exists"] is True
        assert payload["recovery"]["entries_restored"] == 1
        assert payload["recovery"]["stop_reason"] is None
        assert payload["last_recovery"] == payload["recovery"]
