"""Telemetry parity with the commit before the one-scope refactor.

``tests/obs/golden/spine.json`` is ``tools/telemetry_golden.py``'s
output at the parent of the change that made the tracer, the profiler
and ``steps_ms`` three readers of one stage tree.  Every surface must
still show the same thing for the same scenario; the profile is
compared on the golden's rows only (the fold may add rows for scopes
only the tracer used to see).
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "telemetry_golden.py"
GOLDEN = Path(__file__).resolve().parent / "golden" / "spine.json"

spec = importlib.util.spec_from_file_location("telemetry_golden", TOOL)
telemetry_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(telemetry_golden)


@pytest.fixture(scope="module")
def captured():
    # Through the tool's own rendering: tuples become lists, floats
    # round-trip, exactly as they did for the golden.
    return json.loads(telemetry_golden.render(telemetry_golden.capture()))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "section",
    [
        "metrics",
        "metrics_exemplars",
        "records",
        "decisions",
        "events",
        "timeseries",
        "health",
    ],
)
def test_section_is_identical(captured, golden, section):
    assert captured[section] == golden[section]


def test_trace_trees_are_identical(captured, golden):
    assert len(captured["trace"]) == len(golden["trace"])
    for ours, theirs in zip(captured["trace"], golden["trace"]):
        assert ours == theirs


def test_profile_keeps_every_row_and_number(captured, golden):
    ours, theirs = captured["profile"], golden["profile"]
    assert ours["slowest_queries"] == theirs["slowest_queries"]
    assert ours["top_k"] == theirs["top_k"]
    for name, row in theirs["stages"].items():
        assert ours["stages"][name] == row, name


def test_scenario_exercises_the_charge_rules(golden):
    """The golden is only a guard if the hard cases are in it."""
    steps = [
        [step for step, _ in record["steps_ms"]]
        for record in golden["records"]
    ]
    # A gateway timeout charged to ``origin`` inside the origin phase.
    assert any("backoff" in s and "origin" in s for s in steps)
    # An origin phase that raised before charging leaves no step key.
    assert ["parse", "check"] in steps
    outcomes = {record["outcome"] for record in golden["records"]}
    assert outcomes >= {"served", "degraded", "partial", "failed", "shed"}
    roots = {root["name"] for root in golden["trace"]}
    assert roots == {"query", "bind", "recovery"}
