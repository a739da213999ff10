"""Recovery vs foreign-shard records: skip and count, never re-admit.

A shard's journal tags every admit with the shard's id.  When a
persistence directory ends up under the *wrong* shard — a copied
directory, or a handoff file replayed by recovery instead of the
cluster's explicit :func:`~repro.cluster.replay_records` — recovery
must skip those records (the ring owner serves them now) and report
them as ``entries_foreign`` rather than silently duplicating cache
state across the tier.
"""

from __future__ import annotations

import pytest

from repro.core.cache import CacheManager
from repro.core.description import ArrayDescription
from repro.network.clock import SimulatedClock
from repro.persistence import CachePersister, recover_cache
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


def make_shard_rig(directory, origin, shard_id):
    """A cache + persister pair journaling under ``shard_id``."""
    clock = SimulatedClock()
    persister = CachePersister(directory, shard_id=shard_id)
    cache = CacheManager(ArrayDescription())
    persister.bind(
        cache,
        clock,
        version_of=lambda: origin.data_version,
        admitted_under=lambda: origin.data_version,
    )
    cache.mutation_log = persister
    return cache, persister


@pytest.fixture()
def bind(templates, radial_params):
    def run(**overrides):
        return templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, **overrides)
        )

    return run


def admit(origin, cache, bound):
    result = origin.execute_bound(bound).result
    return cache.store(bound, result, "", False)


class TestForeignRecovery:
    def test_foreign_records_skipped_and_counted(
        self, tmp_path, origin, templates, bind
    ):
        cache, persister = make_shard_rig(tmp_path, origin, "shard-a")
        admit(origin, cache, bind())
        admit(origin, cache, bind(ra=166.0, radius=2.0))

        # The same directory restarted under a different shard id: the
        # ring owns those entries elsewhere now.
        fresh_cache, restarted = make_shard_rig(
            tmp_path, origin, "shard-b"
        )
        report = recover_cache(restarted, fresh_cache, templates)
        assert report.entries_foreign == 2
        assert report.entries_restored == 0
        assert len(fresh_cache.entries()) == 0

    def test_matching_shard_id_restores(
        self, tmp_path, origin, templates, bind
    ):
        cache, persister = make_shard_rig(tmp_path, origin, "shard-a")
        admit(origin, cache, bind())

        fresh_cache, restarted = make_shard_rig(
            tmp_path, origin, "shard-a"
        )
        report = recover_cache(restarted, fresh_cache, templates)
        assert report.entries_foreign == 0
        assert report.entries_restored == 1
        assert len(fresh_cache.entries()) == 1

    def test_untagged_records_restore_anywhere(
        self, tmp_path, origin, templates, bind
    ):
        """Pre-sharding journals (shard=None) predate the tier: any
        shard may restore them."""
        cache, persister = make_shard_rig(tmp_path, origin, None)
        admit(origin, cache, bind())

        fresh_cache, restarted = make_shard_rig(
            tmp_path, origin, "shard-b"
        )
        report = recover_cache(restarted, fresh_cache, templates)
        assert report.entries_foreign == 0
        assert report.entries_restored == 1

    def test_foreign_count_in_report_dict(
        self, tmp_path, origin, templates, bind
    ):
        cache, persister = make_shard_rig(tmp_path, origin, "shard-a")
        admit(origin, cache, bind())
        fresh_cache, restarted = make_shard_rig(
            tmp_path, origin, "shard-b"
        )
        report = recover_cache(restarted, fresh_cache, templates)
        assert report.to_dict()["entries_foreign"] == 1
