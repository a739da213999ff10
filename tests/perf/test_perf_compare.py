"""The equality gate."""

import math

import pytest

from repro.perf.compare import compare_results
from repro.perf.schema import BenchResult, Metric


def result(bench_id="fig5", scale="quick", **metrics):
    """A BenchResult from name -> value (unit ``ms``) or (unit, value)."""
    built = []
    for name, spec in metrics.items():
        unit, value = spec if isinstance(spec, tuple) else ("ms", spec)
        built.append(Metric(name, unit, value))
    return BenchResult(
        bench_id=bench_id,
        run={"scale": scale},
        metrics=tuple(built),
    )


def only(comparisons, name):
    matches = [c for c in comparisons if c.name == name]
    assert len(matches) == 1
    return matches[0]


class TestGate:
    def test_unchanged_passes(self):
        base = result(a=1020.340123875, b=("fraction", 0.552))
        copy = BenchResult.from_dict(base.to_dict())
        comparisons = compare_results(base, copy)
        assert [c.name for c in comparisons] == ["a", "b"]
        assert not any(c.regressed for c in comparisons)
        assert "ok" in comparisons[0].format()

    def test_twenty_percent_slowdown_fails_at_ten_percent(self):
        base = result(m=100.0)
        cur = result(m=120.0)
        verdict = only(compare_results(base, cur), "m")
        assert verdict.regressed
        assert verdict.baseline == ("ms", 100.0)
        assert verdict.current == ("ms", 120.0)
        assert "REGRESSED" in verdict.format()

    @pytest.mark.parametrize("toward", [math.inf, -math.inf])
    def test_one_ulp_change_fails(self, toward):
        value = 1020.340123875
        base = result(m=value)
        cur = result(m=math.nextafter(value, toward))
        assert only(compare_results(base, cur), "m").regressed


class TestStructuralFailures:
    def test_missing_gated_metric_fails(self):
        base = result(m=100.0, other=1.0)
        cur = result(other=1.0)
        verdict = only(compare_results(base, cur), "m")
        assert verdict.regressed
        assert verdict.current is None
        assert "missing" in verdict.format()

    def test_extra_metric_fails(self):
        base = result(m=100.0)
        cur = result(m=100.0, fresh=1.0)
        verdict = only(compare_results(base, cur), "fresh")
        assert verdict.regressed
        assert verdict.baseline is None

    def test_unit_change_fails(self):
        base = result(m=("ms", 100.0))
        cur = result(m=("s", 100.0))
        assert only(compare_results(base, cur), "m").regressed

    def test_scale_mismatch_fails_wholesale(self):
        base = result(scale="quick", m=100.0)
        cur = result(scale="paper", m=100.0)
        comparisons = compare_results(base, cur)
        assert len(comparisons) == 1
        assert comparisons[0].name == "<scale>"
        assert comparisons[0].regressed
        assert "'quick'" in comparisons[0].format()

    def test_bench_id_mismatch_raises(self):
        with pytest.raises(ValueError, match="cannot compare"):
            compare_results(
                result(bench_id="fig5", m=1.0),
                result(bench_id="fig6", m=1.0),
            )
