"""The bytes a persister leaves on disk, pinned.

One seeded scenario — radial admits into a budget that forces
evictions, ``snapshot_every=8`` so several cadence checkpoints fire
and a journal tail is left over — run with and without a ``shard_id``.
The SHA-256 digests below were captured at the commit *before* a
result's XML became something rendered once and without a DOM
(``e2d0a9e``); a change to how that text is produced must reproduce
both files byte for byte and restore the same entries from them.
Regenerating a digest is for an intended wire change only.
"""

import hashlib
import random

import pytest

GOLDEN = {
    None: {
        "journal.bin": "937e0a6fe216949159b4aa6145e53a69e360ab5d108858126eea6b10012bbab4",
        "snapshot.json": "ef1a39d6ed95fe4e28bdf0b0fccbbc25238e592b129fc4a6a0b9a308a757704f",
    },
    "shard-b": {
        "journal.bin": "ebf4b7c7edb081f7172e890ce74aa0661b45869b2be79e8109a5a70a9446edf9",
        "snapshot.json": "ac4dc606b95f6db59a37d68ad97b2ef966a960e17f703959017b91cb6208b967",
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
        for name in ("journal.bin", "snapshot.json")
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
