"""Binding parity with the commit before the one-walker refactor.

``tests/templates/golden/bindings.json`` is ``tools/binding_golden.py``'s
output at the parent of the change that gave expressions one definition
of their children and made ``$``-parameters environment values.  Bound
SQL, signatures and cache keys are journal payloads and the HTTP hop's
body; regions are compared with ``==`` on warm restart — so every
section must be identical to the last byte and the last bit.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "binding_golden.py"
GOLDEN = Path(__file__).resolve().parent / "golden" / "bindings.json"

spec = importlib.util.spec_from_file_location("binding_golden", TOOL)
binding_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(binding_golden)


@pytest.fixture(scope="module")
def captured():
    # Through the tool's own rendering: tuples become lists, floats
    # round-trip, exactly as they did for the golden.
    return json.loads(binding_golden.render(binding_golden.capture()))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "section", ["bindings", "form_bindings", "remainders", "finalize"]
)
def test_section_is_identical(captured, golden, section):
    assert len(captured[section]) == len(golden[section])
    for ours, theirs in zip(captured[section], golden[section]):
        assert ours == theirs


def test_errors_keep_type_and_text(captured, golden):
    assert captured["errors"] == golden["errors"]


def test_golden_covers_the_hard_cases(golden):
    """The golden is only a guard if the hard cases are in it."""
    templates = {entry["template"] for entry in golden["bindings"]}
    assert len(templates) == 4
    assert all(
        sum(entry["template"] == t for entry in golden["bindings"]) == 50
        for t in templates
    )
    shapes = {entry["region"]["shape"] for entry in golden["bindings"]}
    assert shapes == {"sphere", "rect", "polytope"}
    assert len(golden["remainders"]) == 20
    assert {
        (entry["hole_shape"], entry["n_holes"])
        for entry in golden["remainders"]
    } == {
        (shape, count)
        for shape in ("sphere", "rect", "polytope")
        for count in (1, 3, 16)
    }
    # Int and negative parameters render differently from floats.
    calls = [
        entry["sql"].split(" FROM ")[1].split(" n ")[0]
        for entry in golden["bindings"]
    ]
    assert any(re.search(r"[(, ]\d+[,)]", call) for call in calls)
    assert any(", -" in call for call in calls)
    ordered = [e for e in golden["finalize"] if len(e["order"]) > 1]
    assert ordered and ordered[0]["order"] != sorted(ordered[0]["order"])
    assert all(": " in text for text in golden["errors"].values())
