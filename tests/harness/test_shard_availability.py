"""The shard-availability experiment: crash, failover, handoff."""

import pytest

from repro.harness.config import ExperimentScale
from repro.harness.runner import ExperimentRunner
from repro.harness.shard_availability import (
    FULL_SHARD_COUNTS,
    QUICK_SHARD_COUNTS,
    busiest_shard,
    run_scenario,
    run_shard_availability,
    shard_counts_for,
)
from repro.workload.closed_loop import ClosedLoopConfig


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(ExperimentScale.quick().with_trace_length(80))


@pytest.fixture(scope="module")
def result(runner):
    return run_shard_availability(
        runner,
        shard_counts=(2,),
        crash_ms=6_000.0,
        load=ClosedLoopConfig(
            n_clients=10, queries_per_client=4, think_time_ms=1_500.0
        ),
    )


class TestLadder:
    def test_counts_for_scale(self):
        assert shard_counts_for(ExperimentScale.quick()) == (
            QUICK_SHARD_COUNTS
        )
        assert shard_counts_for(ExperimentScale.default()) == (
            FULL_SHARD_COUNTS
        )
        assert FULL_SHARD_COUNTS[-1] >= 8

    def test_busiest_shard_deterministic(self, runner):
        assert busiest_shard(runner, 4) == busiest_shard(runner, 4)

    def test_unknown_scenario_rejected(self, runner):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario(
                runner,
                2,
                "chaos",
                crash_ms=1.0,
                load=ClosedLoopConfig(
                    n_clients=1, queries_per_client=1, think_time_ms=0.0
                ),
            )


class TestResultShape:
    def test_three_scenarios_per_count(self, result):
        assert [p.scenario for p in result.points] == [
            "baseline",
            "failover",
            "control",
        ]
        assert all(p.shards == 2 for p in result.points)

    def test_every_submission_recorded(self, result):
        expected = result.load.n_clients * result.load.queries_per_client
        for point in result.points:
            assert point.records == expected

    def test_baseline_answers_everything(self, result):
        baseline = result.point(2, "baseline")
        assert baseline.answered_fraction >= 1.0
        assert baseline.crashed_shard is None
        assert baseline.failovers == 0
        assert baseline.handoff_entries == 0

    def test_failover_beats_control(self, result):
        failover = result.point(2, "failover")
        control = result.point(2, "control")
        assert failover.crashed_shard == control.crashed_shard
        assert failover.answered_fraction > control.answered_fraction
        assert control.shed > 0
        assert failover.shed == 0

    def test_render_and_dict(self, result):
        table = result.render()
        assert "Shard availability" in table
        assert "failover" in table
        payload = result.to_dict()
        assert len(payload["points"]) == 3
        assert payload["crash_ms"] == result.crash_ms

    def test_missing_point_raises(self, result):
        with pytest.raises(KeyError):
            result.point(64, "baseline")

    def test_determinism(self, runner):
        def run():
            return run_shard_availability(
                runner,
                shard_counts=(2,),
                crash_ms=6_000.0,
                load=ClosedLoopConfig(
                    n_clients=6, queries_per_client=3, think_time_ms=1_000.0
                ),
            ).to_dict()

        assert run() == run()
