"""Table 1: average cache efficiency of AC and PC across cache sizes.

Paper::

    Cache Size   1/6    1/3    1/2    1
    AC           0.531  0.565  0.582  0.593
    PC           0.290  0.305  0.311  0.313

Shape assertions: AC roughly doubles PC at every size; both grow with
cache size; AC gains more from the growth than PC.

The benchmark kernel replays a slice of the trace through a warmed
full-semantic proxy — the steady-state cost of active caching.
"""

from repro.core.schemes import CachingScheme
from repro.harness.table1 import run_table1
from repro.workload.rbe import BrowserEmulator


def test_table1(runner, record_result, bench_report, benchmark):
    result = run_table1(runner)
    record_result("table1_cache_efficiency", result.render())

    fractions = sorted(result.ac)

    report = bench_report("table1")
    for tag, fraction in (
        ("smallest", fractions[0]),
        ("full", fractions[-1]),
    ):
        report.metric(
            f"ac_efficiency_{tag}",
            result.ac[fraction],
            unit="fraction",
        )
        report.metric(
            f"pc_efficiency_{tag}",
            result.pc[fraction],
            unit="fraction",
        )
    report.finish()
    for fraction in fractions:
        ratio = result.ac[fraction] / result.pc[fraction]
        assert 1.3 <= ratio <= 3.0, (
            f"AC/PC efficiency ratio {ratio:.2f} at {fraction} is out of "
            "the paper's shape (about 2x)"
        )
    assert result.ac[fractions[-1]] >= result.ac[fractions[0]]
    assert result.pc[fractions[-1]] >= result.pc[fractions[0]]
    ac_gain = result.ac[fractions[-1]] - result.ac[fractions[0]]
    pc_gain = result.pc[fractions[-1]] - result.pc[fractions[0]]
    assert ac_gain >= pc_gain, (
        "the paper finds cache growth helps AC more than PC"
    )

    # Benchmark: steady-state active-cache replay.
    proxy = runner.build_proxy(CachingScheme.FULL_SEMANTIC, "array", None)
    emulator = BrowserEmulator(proxy)
    warmup = min(len(runner.trace), 400)
    emulator.run(runner.trace, limit=warmup)
    sample = runner.trace[warmup // 2: warmup]

    benchmark(emulator.run, sample)
