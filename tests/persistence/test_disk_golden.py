"""The bytes a persister leaves on disk, pinned.

One seeded scenario — radial admits into a budget that forces
evictions, ``snapshot_every=8`` so several cadence checkpoints fire
and a journal tail is left over — run with and without a ``shard_id``.
The SHA-256 digests below were captured when the wire format moved to
version 3 (binary record heads, a result as its binary table; the
snapshot as the kept admit frames); a change to how those bytes are
produced must reproduce both files byte for byte and restore the same
entries from them.
Regenerating a digest is for an intended wire change only.
"""

import hashlib
import random

import pytest

GOLDEN = {
    None: {
        "journal.bin": "8973ad37fe2a132fa18878f9cf9b2e88dd6d47af6741ce18a89d9ecd0646a04e",
        "snapshot.bin": "cd52929ff467ae68a6f79a7316f48b6664f3795d810f3b279b1bea649a4b5d94",
    },
    "shard-b": {
        "journal.bin": "8f51b1a0de8b8b10227af6757892ea791febd84a6655370b700b74c0cbf14f17",
        "snapshot.bin": "91230784cf46334c205c396a1ed19ee2161ea3b2252ae245f7b837b2df2e3fa3",
    },
}


def run_scenario(rig, bind_radial):
    rng = random.Random(339)
    for _ in range(30):
        rig.clock.advance(rng.uniform(1.0, 50.0))
        rig.admit(
            bind_radial(
                ra=rng.uniform(161.0, 167.0),
                dec=rng.uniform(6.0, 10.0),
                radius=rng.uniform(4.0, 16.0),
            ),
            signature=f"sig-{rng.randrange(1000)}",
        )


def digests(directory):
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in ("journal.bin", "snapshot.bin")
    }


@pytest.mark.parametrize("shard_id", [None, "shard-b"])
def test_journal_and_snapshot_bytes_match_the_parent_commit(
    make_rig, bind_radial, tmp_path, shard_id
):
    rig = make_rig(snapshot_every=8, max_bytes=20_000, shard_id=shard_id)
    run_scenario(rig, bind_radial)

    assert rig.cache.evictions > 0
    assert rig.persister.journal.records_appended > 0  # a live tail
    assert digests(tmp_path) == GOLDEN[shard_id]

    def contents(cache):
        return {
            (e.cache_key, e.region, e.signature, e.truncated, e.result.to_xml())
            for e in cache.entries()
        }

    restarted = make_rig(recovered=True, shard_id=shard_id)
    assert restarted.recovery_report.clean
    assert contents(restarted.cache) == contents(rig.cache)
