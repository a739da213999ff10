"""Statistics records and aggregation."""

import pytest

from repro.core.stats import QueryRecord, QueryStatus, TraceStats


def record(
    status=QueryStatus.EXACT,
    response_ms=100.0,
    total=10,
    from_cache=10,
    contacted=False,
    steps=None,
    check_wall=0.5,
):
    return QueryRecord(
        index=1,
        template_id="t",
        status=status,
        response_ms=response_ms,
        tuples_total=total,
        tuples_from_cache=from_cache,
        result_bytes=1000,
        origin_bytes=0 if not contacted else 1000,
        contacted_origin=contacted,
        steps_ms=steps or {},
        check_wall_ms=check_wall,
    )


class TestCacheEfficiency:
    def test_full_cache_answer(self):
        assert record().cache_efficiency == 1.0

    def test_partial(self):
        r = record(total=10, from_cache=4, contacted=True)
        assert r.cache_efficiency == pytest.approx(0.4)

    def test_empty_result_without_origin_counts_full(self):
        r = record(total=0, from_cache=0, contacted=False)
        assert r.cache_efficiency == 1.0

    def test_empty_result_with_origin_counts_zero(self):
        r = record(total=0, from_cache=0, contacted=True)
        assert r.cache_efficiency == 0.0


class TestTraceStats:
    def test_averages(self):
        stats = TraceStats(
            [
                record(response_ms=100.0),
                record(response_ms=300.0, total=10, from_cache=0,
                       contacted=True, status=QueryStatus.DISJOINT),
            ]
        )
        assert stats.average_response_ms == pytest.approx(200.0)
        assert stats.average_cache_efficiency == pytest.approx(0.5)
        assert stats.hit_ratio == pytest.approx(0.5)

    def test_empty_stats_are_zero(self):
        stats = TraceStats()
        assert stats.average_response_ms == 0.0
        assert stats.average_cache_efficiency == 0.0
        assert stats.hit_ratio == 0.0
        assert stats.max_check_wall_ms() == 0.0

    def test_status_fractions(self):
        stats = TraceStats(
            [record(), record(), record(status=QueryStatus.DISJOINT)]
        )
        fractions = stats.status_fractions()
        assert fractions[QueryStatus.EXACT] == pytest.approx(2 / 3)
        assert fractions[QueryStatus.DISJOINT] == pytest.approx(1 / 3)

    def test_percentiles(self):
        stats = TraceStats(
            [record(response_ms=float(v)) for v in (10, 20, 30, 40, 50)]
        )
        assert stats.response_percentile(0.0) == 10.0
        assert stats.response_percentile(0.5) == 30.0
        assert stats.response_percentile(1.0) == 50.0

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            TraceStats().response_percentile(1.5)

    def test_average_step_ms(self):
        stats = TraceStats(
            [
                record(steps={"check": 2.0, "read": 4.0}),
                record(steps={"check": 4.0}),
            ]
        )
        steps = stats.average_step_ms()
        assert steps["check"] == pytest.approx(3.0)
        assert steps["read"] == pytest.approx(2.0)

    def test_first_prefix(self):
        stats = TraceStats([record(response_ms=float(i)) for i in range(10)])
        prefix = TraceStats(stats.records[:3])
        assert len(prefix) == 3
        assert prefix.average_response_ms == pytest.approx(1.0)

    def test_max_check_wall(self):
        stats = TraceStats(
            [record(check_wall=0.5), record(check_wall=2.5)]
        )
        assert stats.max_check_wall_ms() == 2.5

    def test_check_wall_summary_ignores_unchecked_queries(self):
        # Exact matches never run a description check; their zero
        # check_wall_ms must not drag the percentiles down.
        checked = [
            record(steps={"check": 1.0}, check_wall=float(v))
            for v in (1, 2, 3, 4, 5)
        ]
        unchecked = [record(steps={"read": 1.0}, check_wall=0.0)] * 5
        stats = TraceStats(checked + unchecked)
        summary = stats.check_wall_summary()
        assert summary["p50"] == 3.0
        assert summary["p95"] == 5.0
        assert summary["max"] == 5.0

    def test_check_wall_summary_empty(self):
        summary = TraceStats().check_wall_summary()
        assert summary == {"p50": 0.0, "p95": 0.0, "max": 0.0}

    def test_check_wall_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            TraceStats().check_wall_percentile(-0.1)
