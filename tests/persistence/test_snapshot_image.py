"""The disk image is the live cache, whatever the mutation stream.

Random admit / evict / consolidate / replace / clear sequences, with
data-version moves and cadence checkpoints, into a byte-budgeted
cache: after every step, snapshot plus journal — what
:func:`~repro.persistence.image.load_image` folds, what recovery
rebuilds from — holds exactly the live entries, each with the version
it was admitted under.  The kept admit frames are what makes the
snapshot half of that true.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.persistence import recover_cache, region_from_dict
from repro.persistence.image import load_image
from repro.relational.result import ResultTable
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID
from tests.persistence.conftest import PersistenceRig

QUERY = st.tuples(
    st.sampled_from([161.0, 162.5, 164.0, 165.5, 167.0]),
    st.sampled_from([6.0, 8.0, 10.0]),
    st.sampled_from([3.0, 5.0, 8.0]),
)
STEP = st.one_of(
    st.tuples(st.just("admit"), QUERY),
    st.tuples(st.just("replace"), st.integers(0, 50)),
    st.tuples(st.just("consolidate"), st.integers(0, 50)),
    st.tuples(st.just("clear"), st.none()),
    st.tuples(st.just("bump"), st.none()),
)


def bind(templates, query):
    ra, dec, radius = query
    return templates.bind(
        RADIAL_TEMPLATE_ID,
        {"ra": ra, "dec": dec, "radius": radius,
         "r_min": -9999.0, "r_max": 9999.0},
    )


def assert_image_is_the_cache(rig, versions):
    admits = load_image(rig.persister).admits
    live = {entry.entry_id: entry for entry in rig.cache.entries()}
    assert sorted(admits) == sorted(live)
    for entry_id, record in admits.items():
        entry = live[entry_id]
        template_id, params = entry.cache_key
        assert record.template_id == template_id
        assert record.params == dict(params)
        assert region_from_dict(record.region) == entry.region
        assert record.signature == entry.signature
        assert record.truncated == entry.truncated
        assert ResultTable.from_bytes(record.result) == entry.result
        assert record.data_version == versions[entry_id]


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    steps=st.lists(STEP, min_size=1, max_size=30),
    snapshot_every=st.sampled_from([1, 2, 3, 7]),
)
def test_snapshot_and_journal_hold_the_live_cache(
    origin, templates, steps, snapshot_every
):
    with tempfile.TemporaryDirectory() as tmp:
        rig = PersistenceRig(
            Path(tmp), origin, templates,
            snapshot_every=snapshot_every, max_bytes=12_000,
        )
        admitted, versions = [], {}
        for kind, arg in steps:
            if kind == "admit" or (kind == "replace" and admitted):
                query = arg if kind == "admit" else (
                    admitted[arg % len(admitted)]
                )
                entry, _ = rig.admit(bind(templates, query))
                if entry is not None:
                    admitted.append(query)
                    versions[entry.entry_id] = rig.data_version
            elif kind == "consolidate" and len(rig.cache):
                entries = sorted(rig.cache.entries(), key=lambda e: e.entry_id)
                rig.cache.remove(entries[arg % len(entries)])
            elif kind == "clear":
                rig.cache.clear()
            elif kind == "bump":
                rig.data_version += 1
            assert_image_is_the_cache(rig, versions)

        # What a restart at the current version brings back: every live
        # entry admitted under it, and nothing else.
        restarted = PersistenceRig(Path(tmp), origin, templates)
        restarted.data_version = rig.data_version
        report = recover_cache(
            restarted.persister, restarted.cache, restarted.templates
        )
        current = {
            entry.cache_key
            for entry in rig.cache.entries()
            if versions[entry.entry_id] == rig.data_version
        }
        assert report.entries_restored == len(current)
        assert report.entries_stale == len(rig.cache) - len(current)
        assert {e.cache_key for e in restarted.cache.entries()} == current
