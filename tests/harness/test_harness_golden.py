"""Harness output parity with the commit before the one-column-list
refactor.

``tests/harness/golden/harness.json`` is ``tools/harness_golden.py``'s
output at the parent of the change that made every result serialize
from its own dataclass fields and render from one ``(header, value)``
column list.  Each experiment must still export the same dictionary and
print the same table, character for character.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "harness_golden.py"
GOLDEN = Path(__file__).resolve().parent / "golden" / "harness.json"

spec = importlib.util.spec_from_file_location("harness_golden", TOOL)
harness_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(harness_golden)

EXPERIMENTS = (
    "trace_stats",
    "table1",
    "fig5",
    "fig6",
    "description_ablation",
    "remainder_ablation",
    "fault_availability",
    "recovery",
    "saturation",
    "shard_availability",
)


@pytest.fixture(scope="module")
def captured():
    # Through the tool's own rendering: tuples become lists and float
    # keys become strings, exactly as they did for the golden.
    return json.loads(harness_golden.render(harness_golden.capture()))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_experiment(captured, golden):
    assert sorted(golden) == sorted(EXPERIMENTS)
    assert sorted(captured) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_dict_is_identical(captured, golden, experiment):
    assert captured[experiment]["dict"] == golden[experiment]["dict"]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_table_is_identical(captured, golden, experiment):
    assert captured[experiment]["render"] == golden[experiment]["render"]
