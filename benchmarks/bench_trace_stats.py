"""Section 4.1 trace profile (the workload statistics paragraph).

Paper: 11,323 Radial-form queries; with an unlimited cache ~51% fully
answerable (17% exact + 34% containment) and ~9% overlapping.

The benchmark kernel is the trace analyzer itself — the same region
reasoning the proxy runs per query, over the whole trace.
"""

from repro.harness.trace_stats import run_trace_stats
from repro.workload.analyzer import analyze_trace


def test_trace_profile(
    runner, record_result, record_json, bench_report, benchmark
):
    result = run_trace_stats(runner)
    record_result("trace_stats", result.render())
    # Machine-readable twin of the table, via the metrics registry,
    # so future PRs can diff the trace profile numerically.
    record_json("trace_stats", result.snapshot())

    profile = result.profile

    # Workload composition, not proxy performance.  The generator is
    # seeded, so the gate holds these equal too: a change means the
    # replayed workload moved under every other figure.
    report = bench_report("trace_stats")
    report.metric(
        "fully_answerable", profile.fully_answerable, unit="fraction"
    )
    report.metric("overlap_fraction", profile.overlap, unit="fraction")
    report.finish()
    assert 0.40 <= profile.fully_answerable <= 0.65
    assert 0.04 <= profile.overlap <= 0.15

    sample = runner.trace.head(min(len(runner.trace), 500))
    benchmark(analyze_trace, sample, runner.origin.templates)
