"""Ablation: array vs R-tree cache description (Section 4.2's claim).

Paper: "the cache checking time with or without the R-tree index is
always under 100 milliseconds" (real time), "the R-tree index ... does
not accelerate the active caching scheme and in some cases even slows
it down slightly", and "the maintenance of the R-tree index is more
costly than that of an array".

The benchmark kernel is a description probe against a populated cache,
for each implementation.
"""

import pytest

from repro.core.schemes import CachingScheme
from repro.harness.ablations import run_description_ablation


@pytest.fixture(scope="module")
def ablation(runner, record_result, bench_report):
    result = run_description_ablation(runner)
    # The committed table holds simulated numbers only; the real check
    # time is machine-bound, so it is printed, not written.
    record_result("ablation_description", result.render(wall_clock=False))
    print("max real check ms:", result.max_check_wall_ms)

    report = bench_report("ablation_description")
    for kind in ("array", "rtree"):
        report.metric(
            f"{kind}_response_ms", result.response_ms[kind], unit="ms"
        )
        report.metric(
            f"{kind}_maintenance_sim_ms",
            result.mean_maintenance_sim_ms[kind],
            unit="ms",
        )
    report.finish()
    return result


def test_description_claims(ablation):
    # The check's real wall clock is machine-bound, so it is no bench
    # metric; the paper's 100 ms claim is asserted here instead.
    # Checking is always fast in real time, with or without the R-tree,
    # at every scale: each entry's box is built once at admit, so the
    # array's linear scan compares plain floats (the scalability
    # ablation has the per-entry cost) and stays far inside the paper's
    # 100 ms even over the thousands of entries the full paper-scale
    # trace accumulates.
    assert ablation.max_check_wall_ms["rtree"] < 100.0
    assert ablation.max_check_wall_ms["array"] < 100.0
    # R-tree maintenance costs more than the array's (simulated charge).
    assert ablation.mean_maintenance_sim_ms["rtree"] > (
        ablation.mean_maintenance_sim_ms["array"]
    )
    # And the R-tree does not meaningfully improve response time.
    assert ablation.response_ms["rtree"] >= (
        ablation.response_ms["array"] * 0.98
    )


@pytest.mark.parametrize("kind", ["array", "rtree"])
def test_probe_speed(runner, kind, benchmark, ablation):
    proxy = runner.build_proxy(CachingScheme.FULL_SEMANTIC, kind, None)
    # Populate the cache with a prefix of the trace.
    from repro.workload.rbe import BrowserEmulator

    BrowserEmulator(proxy).run(
        runner.trace, limit=min(len(runner.trace), 300)
    )
    probe = runner.origin.templates.bind(
        runner.trace[0].template_id, runner.trace[0].param_dict()
    )

    benchmark(
        proxy.cache.description.candidates, probe.template_id, probe.region
    )
