"""Shared fixtures: each workload run once, tiny, through the CLI.

Run with ``PYTHONPATH=src python -m pytest wallbench/tests -q`` from the
repository root (tier-1's ``testpaths`` does not include this
directory).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from wallbench.__main__ import main  # noqa: E402

WORKLOAD_NAMES = (
    "radial_mix", "hot_hits", "cold_churn", "http_chain", "shard_tier",
)
SMOKE = ["--queries", "60", "--passes", "1"]


@pytest.fixture(scope="session")
def benchmark_json() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


class SmokeRun:
    """One tiny run of one workload: exit code, stdout lines, out dir."""

    def __init__(self, code: int, lines: list[str], out: Path) -> None:
        self.code = code
        self.lines = lines
        self.out = out

    def printed(self) -> dict[str, tuple[float, str]]:
        """``{metric: (value, unit)}`` from the printed table."""
        table = {}
        for line in self.lines:
            parts = line.split()
            if len(parts) == 4 and parts[0] in WORKLOAD_NAMES:
                table[parts[1]] = (float(parts[2]), parts[3])
        return table


@pytest.fixture(scope="session")
def smoke_runs(tmp_path_factory, request) -> dict[str, SmokeRun]:
    """Every workload run once with both metric families, lazily."""
    capmanager = request.config.pluginmanager.getplugin("capturemanager")
    runs: dict[str, SmokeRun] = {}

    class Lazy(dict):
        def __missing__(self, name: str) -> SmokeRun:
            out = tmp_path_factory.mktemp(f"out-{name}")
            # Session fixtures cannot use capsys; read the global capture.
            capmanager.read_global_capture()
            code = main(["--workload", name, "--out", str(out), *SMOKE])
            stdout, _ = capmanager.read_global_capture()
            self[name] = SmokeRun(code, stdout.splitlines(), out)
            return self[name]

    return Lazy(runs)
