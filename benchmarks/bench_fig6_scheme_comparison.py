"""Figure 6: the three active caching schemes (unlimited cache, array).

Paper::

    First  (full semantic)                 1236 ms   efficiency 0.593
    Second (containment + region cont.)    1044 ms   efficiency 0.544
    Third  (pure containment)              1081 ms   efficiency 0.511

Shape assertions: the full scheme has the *best* efficiency and the
*worst* response time — the paper's headline that cache-intersecting
queries may not be worth handling.  The Second/Third gap (37 ms in the
paper) is within noise; we assert they are close rather than ordered
(see EXPERIMENTS.md for the discussion).

The benchmark kernel is the overlap path itself: probe + remainder +
merge for a cache-intersecting query against a warmed cache.
"""

from repro.core.schemes import CachingScheme
from repro.harness.fig6 import run_fig6
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


def test_fig6(runner, record_result, bench_report, benchmark):
    result = run_fig6(runner)
    record_result("fig6_scheme_comparison", result.render())

    response = result.response_ms
    efficiency = result.efficiency

    report = bench_report("fig6")
    for label in ("First", "Second", "Third"):
        report.metric(
            f"{label.lower()}_response_ms", response[label], unit="ms"
        )
        report.metric(
            f"{label.lower()}_efficiency",
            efficiency[label],
            unit="fraction",
        )
    report.finish()

    # Efficiency order matches the paper exactly.
    assert efficiency["First"] >= efficiency["Second"] >= (
        efficiency["Third"]
    )
    # Response time: full semantic caching is the slowest scheme.
    assert response["First"] > response["Second"]
    assert response["First"] > response["Third"]
    # Second and Third are close (paper gap: 3.4%); tolerate 8%.
    gap = abs(response["Second"] - response["Third"])
    assert gap / response["Third"] < 0.08

    # Benchmark: one overlap query (probe + remainder + merge).
    proxy = runner.build_proxy(CachingScheme.FULL_SEMANTIC, "array", None)
    base = dict(runner.trace[0].param_dict())
    warm = runner.origin.templates.bind(RADIAL_TEMPLATE_ID, base)
    proxy.serve(warm)
    shifted = dict(base, ra=base["ra"] + base["radius"] / 90.0)
    overlap = runner.origin.templates.bind(RADIAL_TEMPLATE_ID, shifted)

    def serve_overlap():
        # Remove any entry the previous iteration cached so each round
        # exercises the overlap path, not an exact hit.
        cached = proxy.cache.exact_match(overlap)
        if cached is not None:
            proxy.cache.remove(cached)
        return proxy.serve(overlap)

    benchmark(serve_overlap)
