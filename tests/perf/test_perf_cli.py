"""The ``python -m repro.perf`` command line (the CI gate's entry)."""

import json
import math

import pytest

from repro.perf.__main__ import main
from repro.perf.schema import BenchResult, Metric


def write_result(directory, bench_id, value, scale="quick"):
    directory.mkdir(parents=True, exist_ok=True)
    document = BenchResult(
        bench_id=bench_id,
        run={"scale": scale},
        metrics=(Metric("m", "ms", value),),
    ).to_dict()
    (directory / f"{bench_id}.bench.json").write_text(
        json.dumps(document)
    )


@pytest.fixture()
def dirs(tmp_path):
    baseline = tmp_path / "baselines"
    current = tmp_path / "current"
    write_result(baseline, "fig5", 100.0)
    write_result(current, "fig5", 100.0)
    return baseline, current


def compare_args(baseline, current, *extra):
    return [
        "compare", "--baseline", str(baseline),
        "--current", str(current), *extra,
    ]


class TestCompare:
    def test_unchanged_exits_zero(self, dirs, capsys):
        baseline, current = dirs
        assert main(compare_args(baseline, current)) == 0
        assert "equals its baseline" in capsys.readouterr().out

    def test_injected_slowdown_exits_nonzero(self, dirs, capsys):
        baseline, current = dirs
        write_result(current, "fig5", 120.0)  # 20% above baseline
        assert main(compare_args(baseline, current)) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_one_ulp_exits_nonzero(self, dirs, capsys):
        baseline, current = dirs
        write_result(current, "fig5", math.nextafter(100.0, 0.0))
        assert main(compare_args(baseline, current)) == 1
        assert "99.99999999999999 ms" in capsys.readouterr().out

    def test_missing_current_result_fails(self, dirs, capsys):
        baseline, current = dirs
        write_result(baseline, "fig6", 50.0)
        assert main(compare_args(baseline, current)) == 1
        assert "no current" in capsys.readouterr().out

    def test_bench_filter_limits_the_gate(self, dirs):
        baseline, current = dirs
        write_result(baseline, "fig6", 50.0)  # no current counterpart
        assert main(
            compare_args(baseline, current, "--bench", "fig5")
        ) == 0

    def test_bench_filter_unknown_id_fails(self, dirs, capsys):
        baseline, current = dirs
        assert main(
            compare_args(baseline, current, "--bench", "nope")
        ) == 1
        assert "no baseline for" in capsys.readouterr().out

    def test_missing_baseline_dir_fails(self, tmp_path, dirs):
        _, current = dirs
        assert main(
            compare_args(tmp_path / "empty", current)
        ) == 1


class TestValidate:
    """``compare`` schema-checks every document it loads."""

    def test_valid_directory(self, dirs, capsys):
        baseline, current = dirs
        assert main(compare_args(baseline, current)) == 0
        assert "fig5: ok" in capsys.readouterr().out

    def test_invalid_document(self, dirs, capsys):
        baseline, current = dirs
        (current / "bad.bench.json").write_text("{broken")
        assert main(compare_args(baseline, current)) == 1
        assert "not valid JSON" in capsys.readouterr().out

    def test_invalid_current_document_exits_one(self, dirs, capsys):
        baseline, current = dirs
        path = current / "fig5.bench.json"
        document = json.loads(path.read_text())
        document["metrics"]["m"]["value"] = "100.0"
        path.write_text(json.dumps(document))
        assert main(compare_args(baseline, current)) == 1
        assert "non-numeric" in capsys.readouterr().out

    def test_empty_directory(self, tmp_path, dirs, capsys):
        _, current = dirs
        (tmp_path / "empty").mkdir()
        assert main(compare_args(tmp_path / "empty", current)) == 1
        assert "no *.bench.json baselines" in capsys.readouterr().out
