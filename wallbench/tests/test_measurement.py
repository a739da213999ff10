"""Calibration, exact metrics, the span tree and wrapper removal."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from wallbench import CALIB_NOMINAL_US, EXACT_METRICS
from wallbench.calibrate import read_kernel_us, window_scales
from wallbench.metrics import best_of_passes, percentile
from wallbench.passes import PassResult, traced_pass
from wallbench.runner import passes_for, run_workload
from wallbench.spans import wrappers_installed
from wallbench.workloads import WORKLOADS, Environment

from .conftest import WORKLOAD_NAMES

def test_calibration_is_identity_at_the_nominal_kernel_time():
    result = PassResult(queries=3)
    result.kernel_us = [CALIB_NOMINAL_US, CALIB_NOMINAL_US, CALIB_NOMINAL_US]
    result.latency_ns = [1_000_000, 2_500_000, 40_000]
    result.window_of = [0, 0, 1]
    assert result.calibrated_us() == [1000.0, 2500.0, 40.0]
    assert window_scales([5000.0, 1000.0, 2000.0]) == [1.0, 2.0]
    assert read_kernel_us() > 0


def test_each_query_keeps_its_fastest_pass():
    passes = []
    for latencies in ([5_000, 9_000], [7_000, 4_000]):
        result = PassResult(queries=2)
        result.kernel_us = [CALIB_NOMINAL_US, CALIB_NOMINAL_US]
        result.latency_ns = latencies
        passes.append(result)
    assert best_of_passes(passes) == ([5.0, 4.0], [5.0, 4.0])


def test_percentile_is_the_mean_of_a_band_of_ranks():
    thousand = [float(value) for value in range(1, 1001)]
    # Ranks 495..505 around the median, 985..995 around p99.
    assert percentile(thousand, 0.50) == 500.0
    assert percentile(thousand, 0.99) == 990.0
    # A sample too small for a band falls back to the nearest rank.
    assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0
    assert percentile([7.0], 0.99) == 7.0


def test_seconds_budget_maps_to_whole_passes():
    radial = WORKLOADS["radial_mix"]
    assert passes_for(radial, None) == 2
    assert passes_for(radial, 0.5) == 1
    assert passes_for(radial, 1.5 * radial.pass_seconds) == 1
    assert passes_for(radial, 2 * radial.pass_seconds) == 2
    assert passes_for(radial, 1000.0) == 2


def test_exact_metrics_repeat_for_a_seed_and_move_with_it(tmp_path):
    def exact(seed: int) -> dict[str, float]:
        report = run_workload(
            "radial_mix", seed, tmp_path, end_to_end=False, queries=80
        )
        assert report.correct, report.problems
        return {name: report.metrics[name] for name in EXACT_METRICS}

    first, again, other = exact(339), exact(339), exact(7)
    assert first == again
    assert first["failed_ratio"] == 0.0
    assert all(
        first[name] != other[name]
        for name in EXACT_METRICS
        if name != "failed_ratio"
    )


def _load_spans(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_span_tree_is_well_formed(name, smoke_runs):
    spans = _load_spans(smoke_runs[name].out / f"trace-{name}.jsonl")
    root_name = "webapp.client" if name == "http_chain" else "query"
    own = {span["id"]: span["end_ns"] - span["start_ns"] for span in spans}
    for span in spans:
        assert span["end_ns"] >= span["start_ns"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]
            assert parent["query"] == span["query"]
            own[parent["id"]] -= span["end_ns"] - span["start_ns"]
    assert min(own.values()) >= 0
    served = [span for span in spans if span["query"] >= 0]
    roots = [span for span in served if span["parent"] < 0]
    assert [root["query"] for root in roots] == list(range(60))
    assert {root["name"] for root in roots} == {root_name}
    # Self times add up to the roots' durations exactly.
    assert sum(own[span["id"]] for span in served) == sum(
        root["end_ns"] - root["start_ns"] for root in roots
    )


def test_wrappers_come_off_after_the_traced_pass_even_on_error(tmp_path):
    environment = Environment(WORKLOADS["cold_churn"], 339, tmp_path, 30)
    traced_pass(environment)
    assert wrappers_installed() == []
    environment.params[7] = {"ra": "not a number"}
    with pytest.raises(Exception):
        traced_pass(environment)
    assert wrappers_installed() == []
    assert list(tmp_path.iterdir()) == []  # persistence dirs torn down
