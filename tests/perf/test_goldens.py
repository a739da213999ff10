"""The committed goldens match the benches that write them.

``python -m repro.perf compare`` runs in the bench CI jobs only; these
checks keep a schema bump or a renamed bench from leaving a stale
golden behind unnoticed until then.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.perf.schema import load_result

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
GOLDENS = sorted((BENCHMARKS / "results" / "baselines").glob("*.bench.json"))


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


def test_there_are_goldens():
    assert GOLDENS


@pytest.mark.parametrize("path", GOLDENS, ids=lambda path: path.name)
def test_golden_loads_at_the_current_schema(path):
    result = load_result(path)
    assert path.name == f"{result.bench_id}.bench.json"


def test_each_golden_has_exactly_one_bench_and_each_bench_a_golden():
    goldens = {load_result(path).bench_id for path in GOLDENS}
    ids = bench_report_ids()
    assert {bench_id: ids[bench_id] for bench_id in goldens} == dict.fromkeys(
        goldens, 1
    )
    assert set(ids) == goldens
