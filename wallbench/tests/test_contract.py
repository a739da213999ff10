"""BENCHMARK.json, the metric catalogue and the printed output agree."""

from __future__ import annotations

import json

import pytest

from wallbench.__main__ import main
from wallbench.metrics import END_TO_END, PER_LAYER
from wallbench.workloads import WORKLOADS

from .conftest import SMOKE, WORKLOAD_NAMES


def test_benchmark_json_matches_the_catalogue(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    for family, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [
            (m["name"], m["unit"], m["better"]) for m in benchmark_json[family]
        ]
        assert declared == [(m.name, m.unit, m.better) for m in catalogue]
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in benchmark_json["end_to_end"])
    assert benchmark_json["paths"] == ["wallbench"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_declared_metric_is_printed_with_its_unit(
    name, smoke_runs, benchmark_json
):
    run = smoke_runs[name]
    assert run.code == 0, run.lines[-5:]
    printed = run.printed()
    for metric in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
        assert metric["name"] in printed, metric["name"]
        assert printed[metric["name"]][1] == metric["unit"]
    assert printed["failed_ratio"][0] == 0.0
    report = json.loads((run.out / f"{name}.json").read_text())
    assert report["seed"] == 339 and report["passes"] == 1
    assert report["latency_samples"] == 60 and report["nproc"] >= 1
    assert (run.out / f"trace-{name}.jsonl").stat().st_size > 0


@pytest.mark.parametrize("trace, catalogue", [(0, END_TO_END), (1, PER_LAYER)])
def test_driver_line_is_last_and_carries_one_metric_family(
    trace, catalogue, tmp_path, capsys
):
    code = main(
        ["--workload", "hot_hits", "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--out", str(tmp_path), *SMOKE]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 60
    assert list(result["metrics"]) == [m.name for m in catalogue]
    assert all(
        result["metrics"][m.name]["unit"] == m.unit for m in catalogue
    )


def test_layers_show_up_only_where_they_run(smoke_runs):
    """The layer separation the workloads were chosen for."""
    tables = {name: smoke_runs[name].printed() for name in WORKLOAD_NAMES}
    for name, table in tables.items():
        assert (table["persistence.records_per_query"][0] > 0) == (
            name == "cold_churn"
        )
        assert (table["webapp.client.self_us"][0] > 0) == (name == "http_chain")
        assert (table["cluster.router.route_us"][0] > 0) == (
            name == "shard_tier"
        )
    assert tables["cold_churn"]["server.origin.calls_per_query"][0] == 1.0
    assert tables["cold_churn"]["persistence.restored_ratio"][0] == 1.0
    assert tables["shard_tier"]["cluster.router.failover_ratio"][0] == 0.0


def test_unknown_workload_is_refused(tmp_path, capsys):
    assert main(["--workload", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown workload" in capsys.readouterr().err
