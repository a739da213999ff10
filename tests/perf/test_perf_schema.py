"""The canonical bench-result schema."""

import json

import pytest

from repro.perf.schema import (
    BenchResult,
    Metric,
    PerfSchemaError,
    SCHEMA_VERSION,
    load_result,
    load_results_dir,
)


class TestMetric:
    def test_roundtrip(self):
        metric = Metric("nc_response_ms", "ms", 2029.74648)
        payload = metric.to_dict()
        assert payload == {"unit": "ms", "value": 2029.74648}
        restored = Metric.from_dict("nc_response_ms", payload)
        assert restored == metric

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="", unit="ms", value=1.0),
            dict(name="m", unit="ms", value="1.0"),
            dict(name="m", unit="ms", value=float("inf")),
            dict(name="m", unit="ms", value=float("nan")),
            dict(name="m", unit="ms", value=True),
        ],
    )
    def test_invalid_metrics_rejected(self, kwargs):
        with pytest.raises(PerfSchemaError):
            Metric(**kwargs)

    def test_missing_required_key_rejected(self):
        with pytest.raises(PerfSchemaError, match="keys"):
            Metric.from_dict("m", {"unit": "ms"})

    def test_extra_key_rejected(self):
        with pytest.raises(PerfSchemaError, match="keys"):
            Metric.from_dict(
                "m", {"unit": "ms", "value": 1.0, "median": 1.0}
            )


class TestBenchResult:
    def metric(self, name="m"):
        return Metric(name, "ms", 1.0)

    def test_roundtrip(self):
        result = BenchResult(
            bench_id="fig5",
            run={"scale": "quick"},
            metrics=(self.metric("a"), self.metric("b")),
        )
        restored = BenchResult.from_dict(result.to_dict())
        assert restored == result
        assert restored.scale == "quick"
        assert restored.values() == {"a": ("ms", 1.0), "b": ("ms", 1.0)}

    def test_duplicate_metric_rejected(self):
        with pytest.raises(PerfSchemaError, match="duplicate"):
            BenchResult(
                bench_id="fig5",
                metrics=(self.metric(), self.metric()),
            )

    def test_empty_metrics_rejected(self):
        with pytest.raises(PerfSchemaError, match="at least one"):
            BenchResult(bench_id="fig5")

    def test_wrong_schema_version_rejected(self):
        document = BenchResult(
            bench_id="fig5", metrics=(self.metric(),)
        ).to_dict()
        assert document["schema_version"] == SCHEMA_VERSION
        document["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(PerfSchemaError, match="schema_version"):
            BenchResult.from_dict(document)


class TestLoading:
    def write(self, path, document):
        path.write_text(json.dumps(document))

    def document(self, bench_id="fig5"):
        return BenchResult(
            bench_id=bench_id,
            run={"scale": "quick"},
            metrics=(Metric("m", "ms", 1.0),),
        ).to_dict()

    def test_load_result(self, tmp_path):
        path = tmp_path / "fig5.bench.json"
        self.write(path, self.document())
        assert load_result(path).bench_id == "fig5"

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.bench.json"
        path.write_text("{nope")
        with pytest.raises(PerfSchemaError, match="not valid JSON"):
            load_result(path)

    def test_version_1_document_rejected(self, tmp_path):
        path = tmp_path / "fig5.bench.json"
        self.write(path, {
            "schema_version": 1,
            "bench_id": "fig5",
            "run": {"scale": "quick"},
            "metrics": {"m": {
                "unit": "ms", "polarity": "lower", "values": [1.0],
                "gated": True, "median": 1.0, "iqr": 0.0,
            }},
        })
        with pytest.raises(PerfSchemaError, match="schema_version 1"):
            load_result(path)

    def test_load_results_dir(self, tmp_path):
        self.write(tmp_path / "a.bench.json", self.document("a"))
        self.write(tmp_path / "b.bench.json", self.document("b"))
        (tmp_path / "ignored.json").write_text("[]")
        results = load_results_dir(tmp_path)
        assert sorted(results) == ["a", "b"]

    def test_duplicate_bench_id_across_files(self, tmp_path):
        self.write(tmp_path / "a.bench.json", self.document("fig5"))
        self.write(tmp_path / "b.bench.json", self.document("fig5"))
        with pytest.raises(PerfSchemaError, match="duplicate bench id"):
            load_results_dir(tmp_path)
