"""The committed bench goldens, and the gate that holds a bench run to
them.

A bench's ``finish()`` (``benchmarks/conftest.py``'s
:class:`BenchRecorder`) asserts its numbers equal its golden, so the
gate runs only where the benches do.  These checks keep a renamed bench
or a golden of the wrong scale from leaving a golden unchecked, and pin
what the recorder refuses.
"""

import ast
import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
GOLDENS = sorted((BENCHMARKS / "results" / "baselines").glob("*.bench.json"))

spec = importlib.util.spec_from_file_location(
    "bench_conftest", BENCHMARKS / "conftest.py"
)
bench_conftest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_conftest)
BenchRecorder = bench_conftest.BenchRecorder


def bench_report_ids():
    """How often each literal id is passed to ``bench_report(...)``."""
    ids = Counter()
    for path in BENCHMARKS.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "bench_report"
            ):
                (arg,) = node.args
                assert isinstance(arg, ast.Constant), ast.dump(node)
                ids[arg.value] += 1
    return ids


def load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_there_are_goldens():
    assert GOLDENS


@pytest.mark.parametrize("path", GOLDENS, ids=lambda path: path.name)
def test_golden_loads_at_the_current_schema(path):
    golden = load(path)
    assert golden["schema_version"] == bench_conftest.SCHEMA_VERSION
    assert path.name == f"{golden['bench_id']}.bench.json"
    assert golden["metrics"]
    for entry in golden["metrics"].values():
        assert set(entry) == {"unit", "value"}
        assert isinstance(entry["unit"], str)
        assert math.isfinite(entry["value"])


def test_every_golden_is_at_the_scale_ci_runs():
    # A golden of another scale is not compared, so a stray one would
    # leave its bench ungated in CI (REPRO_SCALE=quick).
    assert {path.name: load(path)["run"]["scale"] for path in GOLDENS} == (
        dict.fromkeys((path.name for path in GOLDENS), "quick")
    )


def test_each_golden_has_exactly_one_bench_and_each_bench_a_golden():
    goldens = {load(path)["bench_id"] for path in GOLDENS}
    ids = bench_report_ids()
    assert {bench_id: ids[bench_id] for bench_id in goldens} == dict.fromkeys(
        goldens, 1
    )
    assert set(ids) == goldens


class TestBenchRecorder:
    VALUE = 1020.340123875

    def record(self, tmp_path, scale="quick", **metrics):
        report = BenchRecorder("fig5", scale, results_dir=tmp_path)
        for name, value in metrics.items():
            report.metric(name, value, unit="ms")
        return report

    def write_golden(self, tmp_path, scale, **metrics):
        golden = tmp_path / "baselines" / "fig5.bench.json"
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(
            json.dumps(
                {
                    "schema_version": bench_conftest.SCHEMA_VERSION,
                    "bench_id": "fig5",
                    "run": {"scale": scale},
                    "metrics": {
                        name: {"unit": "ms", "value": value}
                        for name, value in metrics.items()
                    },
                }
            )
        )

    def test_finish_writes_the_document_and_its_copy_is_a_golden(
        self, tmp_path
    ):
        self.record(tmp_path, acr=self.VALUE, nc=2029.74648).finish()
        written = load(tmp_path / "fig5.bench.json")
        assert written["schema_version"] == bench_conftest.SCHEMA_VERSION
        assert written["bench_id"] == "fig5"
        assert written["run"]["scale"] == "quick"
        assert written["metrics"] == {
            "acr": {"unit": "ms", "value": self.VALUE},
            "nc": {"unit": "ms", "value": 2029.74648},
        }
        (tmp_path / "baselines").mkdir()
        (tmp_path / "baselines" / "fig5.bench.json").write_text(
            (tmp_path / "fig5.bench.json").read_text()
        )
        self.record(tmp_path, acr=self.VALUE, nc=2029.74648).finish()

    def test_one_ulp_off_the_golden_fails_and_names_the_metric(
        self, tmp_path
    ):
        self.write_golden(
            tmp_path, "quick",
            acr=math.nextafter(self.VALUE, math.inf), nc=2029.74648,
        )
        report = self.record(tmp_path, acr=self.VALUE, nc=2029.74648)
        with pytest.raises(AssertionError) as failure:
            report.finish()
        message = str(failure.value)
        assert "acr: golden" in message
        assert "nc:" not in message

    def test_missing_and_extra_metrics_are_named(self, tmp_path):
        self.write_golden(tmp_path, "quick", acr=self.VALUE, gone=1.0)
        report = self.record(tmp_path, acr=self.VALUE, new=2.0)
        with pytest.raises(AssertionError) as failure:
            report.finish()
        message = str(failure.value)
        assert "gone: golden 1.0 ms, this run missing" in message
        assert "new: golden missing, this run 2.0 ms" in message
        assert "acr" not in message

    def test_a_golden_of_another_scale_is_not_compared(self, tmp_path):
        self.write_golden(tmp_path, "default", acr=1.0)
        self.record(tmp_path, acr=self.VALUE).finish()
        assert load(tmp_path / "fig5.bench.json")["metrics"]["acr"] == {
            "unit": "ms",
            "value": self.VALUE,
        }

    def test_a_duplicate_metric_name_is_refused(self, tmp_path):
        report = self.record(tmp_path, acr=self.VALUE)
        with pytest.raises(ValueError, match="duplicate metric 'acr'"):
            report.metric("acr", self.VALUE, unit="ms")
