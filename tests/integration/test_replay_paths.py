"""One way back into the cache: restart, crash handoff and drain agree.

Three paths re-create cache entries from admit records — warm restart
(``recover_cache``), crash handoff from the disk image
(``persisted_records`` -> ``replay_records``) and drain from the live
cache (``export_records`` -> ``replay_records``).  All three run the
single fence -> re-bind -> region-equality -> ``cache.store`` loop of
:mod:`repro.persistence.image`, so for one source cache they must
rebuild *the same* description: the same regions over the same rows
under the same signatures — differing only by the fences each path is
documented to apply (recovery skips foreign-tagged records, handoff
accepts them).

Every restored entry is then checked against the origin: its
exact-match answer must equal ``origin.execute_bound`` as full tuples,
Radial's ``n.distance`` included (a merged overlap result carries the
distances local evaluation recomputed for the merged query's centre),
ordered when the query has ORDER BY / TOP and sorted by the key
otherwise.
"""

import shutil
import tempfile
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import export_records, persisted_records, replay_records
from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryStatus
from repro.faults import CrashPlan
from repro.persistence import (
    AdmitRecord,
    CachePersister,
    encode_record,
    region_to_dict,
)
from repro.persistence.image import load_image
from repro.server.origin import OriginServer
from repro.skydata.generator import SkyCatalogConfig
from repro.templates.skyserver_templates import (
    NEAREST_TEMPLATE_ID,
    RADIAL_TEMPLATE_ID,
    RECT_TEMPLATE_ID,
)
from repro.workload.generator import RadialTraceConfig, generate_radial_trace

TINY_SKY = SkyCatalogConfig(
    n_objects=2_000,
    ra_min=160.0,
    ra_max=168.0,
    dec_min=5.0,
    dec_max=11.0,
    seed=7,
)
MAGS = {"r_min": -9999.0, "r_max": 9999.0}
#: Small enough that the 44-query trace evicts (results here are a
#: few hundred bytes each), large enough to keep several entries.
SOURCE_BUDGET = 4_000
SHARD = "shard-a"


@pytest.fixture(scope="module")
def private_origin():
    """Own origin: the tests bump its data version."""
    return OriginServer.skyserver(TINY_SKY)


def trace_for(origin, seed):
    """A seeded mix over every registered template: the calibrated
    radial moves plus a few rectangles and TOP-1 nearest searches
    (hyperrect regions and truncated entries)."""
    rng = Random(seed)
    queries = [
        origin.templates.bind(q.template_id, q.param_dict())
        for q in generate_radial_trace(
            RadialTraceConfig(n_queries=36, sky=TINY_SKY, seed=seed)
        )
    ]
    for _ in range(4):
        ra, dec = rng.uniform(161.0, 166.0), rng.uniform(6.0, 9.5)
        queries.insert(
            rng.randrange(len(queries)),
            origin.templates.bind(
                RECT_TEMPLATE_ID,
                {
                    "ra_min": round(ra, 3),
                    "ra_max": round(ra + rng.uniform(0.1, 0.5), 3),
                    "dec_min": round(dec, 3),
                    "dec_max": round(dec + rng.uniform(0.1, 0.5), 3),
                    **MAGS,
                },
            ),
        )
        queries.insert(
            rng.randrange(len(queries)),
            origin.templates.bind(
                NEAREST_TEMPLATE_ID,
                {
                    "ra": round(ra, 3),
                    "dec": round(dec, 3),
                    "radius": round(rng.uniform(2.0, 8.0), 2),
                    **MAGS,
                },
            ),
        )
    return queries


def build_source(origin, directory, seed, snapshot_every):
    """Serve the trace with a version bump in the middle; returns the
    source proxy (byte budget, journal, snapshot cadence)."""
    source = FunctionProxy(
        origin,
        origin.templates,
        cache_bytes=SOURCE_BUDGET,
        persistence=CachePersister(
            directory,
            snapshot_every=snapshot_every,
            shard_id=SHARD,
        ),
    )
    queries = trace_for(origin, seed)
    for position, bound in enumerate(queries):
        if position == len(queries) // 2:
            origin.bump_data_version()
        source.serve(bound)
    return source


def successor(origin, budget):
    return FunctionProxy(origin, origin.templates, cache_bytes=budget)


def description_of(proxy):
    """What the cache claims to hold, independent of entry ids."""
    return {
        (
            entry.cache_key,
            repr(region_to_dict(entry.region)),
            entry.signature,
            entry.truncated,
            tuple(tuple(row) for row in entry.result.rows),
        )
        for entry in proxy.cache.entries()
    }


def assert_answers_match_origin(proxy, origin):
    """Every cached entry, asked again, answers as the origin does."""
    for entry in list(proxy.cache.entries()):
        template_id, param_items = entry.cache_key
        bound = origin.templates.bind(template_id, dict(param_items))
        response = proxy.serve(bound)
        assert response.record.status is QueryStatus.EXACT
        expected_table = origin.execute_bound(bound).result
        expected = [tuple(row) for row in expected_table.rows]
        actual = [tuple(row) for row in response.result.rows]
        statement = bound.statement
        if not (statement.order_by or statement.top is not None):
            key = expected_table.schema.position(bound.key_column)
            expected.sort(key=lambda row: row[key])
            actual.sort(key=lambda row: row[key])
        assert actual == expected, (
            f"restored entry for {bound!r} disagrees with the origin"
        )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    snapshot_every=st.sampled_from([3, 16, 1_000]),
    tight=st.booleans(),
)
@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_restart_crash_handoff_and_drain_rebuild_the_same_cache(
    private_origin, seed, snapshot_every, tight
):
    origin = private_origin
    # A tight successor budget makes the replay itself evict.
    budget = SOURCE_BUDGET // 2 if tight else SOURCE_BUDGET
    with tempfile.TemporaryDirectory() as tmp:
        source = build_source(origin, Path(tmp), seed, snapshot_every)
        live = description_of(source)
        assert live, "the trace must leave something to move"

        drained = successor(origin, budget)
        drain_report = replay_records(
            export_records(source, SHARD, source.clock.now_ms),
            drained,
            source=SHARD,
            target="shard-b",
        )
        handed = successor(origin, budget)
        crash_report = replay_records(
            persisted_records(source.persistence),
            handed,
            source=SHARD,
            target="shard-b",
        )
        # Last: recovery re-checkpoints the directory it reads.
        restarted = FunctionProxy(
            origin,
            origin.templates,
            cache_bytes=budget,
            persistence=CachePersister(Path(tmp), shard_id=SHARD),
        )
        recovery = restarted.recovery_report

    # The mid-trace bump flushed the cache (a ``clear`` record on
    # disk): no pre-bump admit may come back on any path.
    assert drain_report.stale == crash_report.stale == 0
    assert recovery.entries_stale == recovery.entries_foreign == 0
    assert (
        drain_report.entries == crash_report.entries == len(live)
    )
    assert (
        drain_report.replayed
        == crash_report.replayed
        == recovery.entries_restored
    )
    assert drain_report.evicted == crash_report.evicted
    assert crash_report.evicted == recovery.entries_evicted
    if not tight:
        assert description_of(drained) == live
    assert (
        description_of(drained)
        == description_of(handed)
        == description_of(restarted)
    )
    for proxy in (drained, handed, restarted):
        assert_answers_match_origin(proxy, origin)


@pytest.mark.parametrize("seed", [339, 7, 2004])
def test_torn_journal_tail_loses_only_the_tail(private_origin, seed):
    """A crash that tears the last append: restart and crash handoff
    both rebuild exactly the intact prefix."""
    origin = private_origin
    with tempfile.TemporaryDirectory() as tmp:
        source = build_source(origin, Path(tmp) / "a", seed, 16)
        # The proxy stops here; the crash tears its journal's tail.
        assert source.persistence.journal.records_appended > 0
        CrashPlan(seed=seed, damage="truncate").apply_damage(
            source.persistence.journal.path
        )
        dead = CachePersister(Path(tmp) / "a", shard_id=SHARD)
        image = load_image(dead)
        assert image.journal.stop_reason == "torn"
        assert image.journal.bytes_replayed < image.journal.bytes_total
        version = origin.data_version
        survivors = [
            record
            for record in image.admits.values()
            if record.data_version == version
        ]

        handed = successor(origin, None)
        report = replay_records(
            persisted_records(dead), handed, source=SHARD, target="shard-b"
        )
        restarted = FunctionProxy(
            origin,
            origin.templates,
            persistence=CachePersister(Path(tmp) / "a", shard_id=SHARD),
        )
        recovery = restarted.recovery_report
        # Recovery repaired the tear on disk.
        assert load_image(restarted.persistence).journal.stop_reason is None

    assert recovery.stop_reason == "torn"
    assert report.entries == len(image.admits)
    assert report.replayed == recovery.entries_restored == len(survivors)
    assert report.stale == recovery.entries_stale
    assert description_of(handed) == description_of(restarted)
    assert len(description_of(restarted)) == len(survivors)
    for proxy in (handed, restarted):
        assert_answers_match_origin(proxy, origin)


def test_foreign_tagged_record_is_the_only_difference(private_origin):
    """Recovery fences records another shard wrote; handoff is the
    movement of exactly such records and accepts them."""
    origin = private_origin
    with tempfile.TemporaryDirectory() as tmp:
        source = build_source(
            origin, Path(tmp) / "a", 339, snapshot_every=1_000
        )
        stray = origin.templates.bind(
            RADIAL_TEMPLATE_ID,
            {"ra": 161.25, "dec": 9.75, "radius": 3.0, **MAGS},
        )
        assert source.cache.exact_match(stray) is None
        source.persistence.journal.append(
            encode_record(
                AdmitRecord(
                    entry_id=10_000,
                    template_id=stray.template_id,
                    params=dict(stray.params),
                    region=region_to_dict(stray.region),
                    signature=stray.signature,
                    truncated=False,
                    result=origin.execute_bound(stray).result.to_bytes(),
                    data_version=origin.data_version,
                    ts_ms=source.clock.now_ms,
                    shard="shard-z",
                )
            )
        )
        handed = successor(origin, None)
        report = replay_records(
            persisted_records(source.persistence),
            handed,
            source=SHARD,
            target="shard-b",
        )
        # The whole directory copied under another shard's id: every
        # record is foreign there, nothing is re-admitted.  (A copy,
        # because recovery re-checkpoints the directory it reads.)
        shutil.copytree(Path(tmp) / "a", Path(tmp) / "b")
        misplaced = FunctionProxy(
            origin,
            origin.templates,
            persistence=CachePersister(Path(tmp) / "b", shard_id="shard-b"),
        )
        restarted = FunctionProxy(
            origin,
            origin.templates,
            persistence=CachePersister(Path(tmp) / "a", shard_id=SHARD),
        )
        recovery = restarted.recovery_report

    assert len(misplaced.cache) == 0
    assert misplaced.recovery_report.entries_foreign == report.entries
    assert recovery.entries_foreign == 1
    assert report.replayed == recovery.entries_restored + 1
    extra = description_of(handed) - description_of(restarted)
    assert [key for key, *_ in extra] == [stray.cache_key()]
    assert description_of(restarted) <= description_of(handed)
    assert description_of(restarted) == description_of(source)
    for proxy in (handed, restarted):
        assert_answers_match_origin(proxy, origin)


def test_unnoticed_version_bump_fences_the_whole_disk_image(private_origin):
    """The source died before it saw the origin move on: its disk
    image is stale, and both disk paths fence out every record."""
    origin = private_origin
    with tempfile.TemporaryDirectory() as tmp:
        source = build_source(origin, Path(tmp), 7, snapshot_every=16)
        held = len(source.cache)
        origin.bump_data_version()
        handed = successor(origin, None)
        report = replay_records(
            persisted_records(source.persistence),
            handed,
            source=SHARD,
            target="shard-b",
        )
        restarted = FunctionProxy(
            origin,
            origin.templates,
            persistence=CachePersister(Path(tmp), shard_id=SHARD),
        )
    assert held > 0
    assert report.stale == restarted.recovery_report.entries_stale == held
    assert report.replayed == restarted.recovery_report.entries_restored == 0
    assert len(handed.cache) == len(restarted.cache) == 0


def test_unnoticed_version_bump_fences_the_whole_drain(private_origin):
    """The same for the live path: a shard drained before it has
    served across the bump exports its cache under the version it was
    admitted at, and the successor fences out every record."""
    origin = private_origin
    with tempfile.TemporaryDirectory() as tmp:
        source = build_source(origin, Path(tmp), 7, snapshot_every=16)
    held = len(source.cache)
    origin.bump_data_version()
    drained = successor(origin, None)
    report = replay_records(
        export_records(source, SHARD, source.clock.now_ms),
        drained,
        source=SHARD,
        target="shard-b",
    )
    assert held > 0
    assert report.stale == held
    assert report.replayed == 0
    assert len(drained.cache) == 0
