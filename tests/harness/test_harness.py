"""Harness machinery: scales, runner, rendering."""

from operator import itemgetter

import pytest

from repro.core.schemes import CachingScheme
from repro.harness.config import ExperimentScale
from repro.harness.render import render_table
from repro.harness.runner import ExperimentRunner


@pytest.fixture(scope="module")
def runner():
    scale = ExperimentScale.quick().with_trace_length(120)
    return ExperimentRunner(scale)


class TestScales:
    def test_presets_are_self_consistent(self):
        for scale in (
            ExperimentScale.paper(),
            ExperimentScale.default(),
            ExperimentScale.quick(),
        ):
            assert scale.measure_queries <= scale.trace.n_queries
            assert scale.trace.sky == scale.sky

    def test_with_trace_length_clamps_measurement(self):
        scale = ExperimentScale.quick().with_trace_length(10)
        assert scale.trace.n_queries == 10
        assert scale.measure_queries == 10


class TestRunner:
    def test_builds_are_cached(self, runner):
        assert runner.origin is runner.origin
        assert runner.trace is runner.trace

    def test_total_result_bytes_positive_and_stable(self, runner):
        assert runner.total_result_bytes > 0
        assert runner.total_result_bytes == runner.total_result_bytes

    def test_cache_bytes_for_fraction(self, runner):
        third = runner.cache_bytes_for(1 / 3)
        assert third == int(runner.total_result_bytes / 3)
        assert runner.cache_bytes_for(None) is None

    def test_run_produces_stats(self, runner):
        result = runner.run(CachingScheme.PASSIVE, "array", None)
        assert len(result.stats) == 120
        assert result.final_cache_entries > 0

    def test_unknown_description_kind_rejected(self, runner):
        with pytest.raises(ValueError, match="array"):
            runner.build_proxy(CachingScheme.PASSIVE, "btree")

    def test_runs_are_reproducible(self, runner):
        first = runner.run(CachingScheme.CONTAINMENT_ONLY, "array", 0.5)
        second = runner.run(CachingScheme.CONTAINMENT_ONLY, "array", 0.5)
        assert first.stats.average_response_ms == pytest.approx(
            second.stats.average_response_ms
        )
        assert first.stats.average_cache_efficiency == pytest.approx(
            second.stats.average_cache_efficiency
        )


class TestRender:
    def test_render_table_alignment(self):
        text = render_table(
            "Title",
            [("name", itemgetter(0)), ("value", itemgetter(1))],
            [["a", 0.123456], ["long-name", 1234.5]],
        )
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "0.123" in text
        assert "1234" in text  # large floats lose decimals
        header, divider = lines[2], lines[3]
        assert len(header) == len(divider)
