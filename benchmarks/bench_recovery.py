"""Crash recovery: warm vs cold restart after a mid-trace crash.

Not a paper table — the paper's proxy loses its cache with the
process.  This experiment replays half the trace with the persistence
journal on, kills the proxy with seeded torn-write damage to the
journal tail, then replays the remainder twice: once on a warm restart
(snapshot + journal recovery) and once cold.

Shape assertions: recovery is crash-consistent (it stops at the tear
and restores the intact prefix, never raising) and worth having — the
warm restart's post-crash hit ratio strictly beats the cold one for
the full semantic scheme.  The no-cache scheme is the control: no
journal, no recovery, identical hit ratios.

The benchmark kernel is the journal append — the per-mutation price a
proxy pays for durability on the admission path.
"""

import shutil

from conftest import RESULTS_DIR

from repro.core.schemes import CachingScheme
from repro.harness.recovery import run_recovery
from repro.persistence import CachePersister
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


def test_recovery(
    runner, record_result, record_json, bench_report, benchmark, tmp_path
):
    # Keep each scheme's persistence directory (recovered snapshot +
    # truncated journal) under the results tree for CI to upload.  A
    # previous run's state goes first: the warm-up would recover it,
    # hit on every query and journal nothing for the crash to tear.
    state_dir = RESULTS_DIR / "recovery_state"
    shutil.rmtree(state_dir, ignore_errors=True)
    result = run_recovery(runner, state_dir=state_dir)
    record_result("recovery", result.render())
    record_json("recovery", result.to_dict())

    ac_row = result.schemes["ac-full"]
    report = bench_report("recovery")
    report.metric(
        "warm_hit_ratio",
        ac_row.warm_hit_ratio,
        unit="fraction",
    )
    report.metric(
        "cold_hit_ratio",
        ac_row.cold_hit_ratio,
        unit="fraction",
    )
    report.finish()

    # The durability headline: after the same crash, the recovered
    # cache answers strictly more of the remaining trace than an empty
    # one.
    ac = result.schemes["ac-full"]
    assert ac.warm_hit_ratio > ac.cold_hit_ratio
    # Crash consistency: the torn tail stopped replay cleanly and the
    # restored prefix is nearly the whole pre-crash cache (at most the
    # torn final record is lost).
    for label in ("pc", "ac-full"):
        row = result.schemes[label]
        assert row.stop_reason == "torn"
        assert row.entries_at_crash - 1 <= row.entries_restored
        assert row.entries_restored <= row.entries_at_crash
    # The control: no cache, no journal, nothing to recover.
    nc = result.schemes["nc"]
    assert nc.journal_records == 0
    assert nc.warm_hit_ratio == nc.cold_hit_ratio

    # Benchmark: one journaled admission — the durability overhead on
    # the cache's write path.
    persister = CachePersister(tmp_path, snapshot_every=10_000_000)
    proxy = runner.build_proxy(
        CachingScheme.FULL_SEMANTIC, "array", None, persistence=persister
    )
    bound = runner.origin.templates.bind(
        RADIAL_TEMPLATE_ID, runner.trace[0].param_dict()
    )
    proxy.serve(bound)
    entry = next(iter(proxy.cache.entries()))

    benchmark(lambda: persister.admitted(entry))
