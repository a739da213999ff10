"""The BenchReporter output contract: document, trajectory, summary."""

import json

import pytest

from repro.perf.reporter import BenchReporter, TRAJECTORY_LIMIT
from repro.perf.schema import PerfSchemaError, load_result


@pytest.fixture()
def reporter(tmp_path):
    return BenchReporter(
        "fig5",
        scale="quick",
        results_dir=tmp_path / "results",
        trajectory_dir=tmp_path,
        run_info={"commit": "abc123"},
    )


class TestDocument:
    def test_finish_writes_schema_valid_document(self, reporter, tmp_path):
        reporter.metric("nc_response_ms", 2081.4, unit="ms")
        reporter.metric("handoff_entries", 3, unit="entries")
        reporter.finish()

        result = load_result(
            tmp_path / "results" / "fig5.bench.json"
        )
        assert result.bench_id == "fig5"
        assert result.scale == "quick"
        assert result.run["commit"] == "abc123"
        assert "timestamp_utc" in result.run
        assert result.values() == {
            "nc_response_ms": ("ms", 2081.4),
            "handoff_entries": ("entries", 3.0),
        }

    def test_finish_twice_is_an_error(self, reporter):
        reporter.metric("m", 1.0, unit="ms")
        reporter.finish()
        with pytest.raises(RuntimeError, match="finish"):
            reporter.finish()

    def test_empty_report_fails_validation(self, reporter):
        with pytest.raises(PerfSchemaError, match="at least one"):
            reporter.finish()

    def test_summary_printed(self, reporter, capsys):
        reporter.metric("m", 1.0, unit="ms")
        reporter.finish()
        out = capsys.readouterr().out
        assert "bench fig5 (scale=quick)" in out
        assert "m               1 ms" in out


class TestTrajectory:
    def trajectory(self, tmp_path):
        return json.loads((tmp_path / "BENCH_fig5.json").read_text())

    def run_once(self, tmp_path, value=1.0):
        reporter = BenchReporter(
            "fig5", scale="quick",
            results_dir=tmp_path / "results", trajectory_dir=tmp_path,
        )
        reporter.metric("m", value, unit="ms")
        reporter.finish()

    def test_appends_across_runs(self, tmp_path):
        self.run_once(tmp_path, 1.0)
        self.run_once(tmp_path, 2.0)
        entries = self.trajectory(tmp_path)
        assert [e["metrics"]["m"]["median"] for e in entries] == [
            1.0, 2.0,
        ]
        assert entries[0]["run"]["scale"] == "quick"

    def test_damaged_trajectory_restarts(self, tmp_path):
        (tmp_path / "BENCH_fig5.json").write_text("{corrupt")
        self.run_once(tmp_path, 3.0)
        entries = self.trajectory(tmp_path)
        assert len(entries) == 1

    def test_truncates_to_limit(self, tmp_path):
        stale = [{"run": {}, "metrics": {}}] * TRAJECTORY_LIMIT
        (tmp_path / "BENCH_fig5.json").write_text(json.dumps(stale))
        self.run_once(tmp_path)
        assert len(self.trajectory(tmp_path)) == TRAJECTORY_LIMIT

    def test_no_trajectory_dir_writes_nothing(self, tmp_path):
        reporter = BenchReporter(
            "fig5", scale="quick", results_dir=tmp_path / "results"
        )
        reporter.metric("m", 1.0, unit="ms")
        reporter.finish()
        assert not (tmp_path / "BENCH_fig5.json").exists()
