"""The canonical bench-result document.

One :class:`BenchResult` per benchmark run.  The JSON shape (pinned in
DESIGN.md; bump :data:`SCHEMA_VERSION` on any breaking change)::

    {
      "schema_version": 2,
      "bench_id": "fig5",
      "run": {"scale": "quick", "timestamp_utc": "...", ...},
      "metrics": {
        "nc_response_ms": {"unit": "ms", "value": 2029.74648},
        ...
      }
    }

Every metric is one number the simulated cost model produced, the same
on every run of the same code at the same scale, so a committed
document is a golden and the gate compares for equality.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

#: Bump on any breaking change to the document shape (see DESIGN.md).
SCHEMA_VERSION = 2


class PerfSchemaError(ValueError):
    """A bench-result document violates the canonical schema."""


@dataclass(frozen=True)
class Metric:
    """One measured quantity."""

    name: str
    unit: str
    value: float

    def __post_init__(self) -> None:
        if not self.name:
            raise PerfSchemaError("metric name must be non-empty")
        if not isinstance(self.value, (int, float)) or isinstance(
            self.value, bool
        ):
            raise PerfSchemaError(
                f"metric {self.name!r}: non-numeric value {self.value!r}"
            )
        if not math.isfinite(self.value):
            raise PerfSchemaError(
                f"metric {self.name!r}: non-finite value {self.value!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {"unit": self.unit, "value": self.value}

    @staticmethod
    def from_dict(name: str, payload: Mapping[str, Any]) -> "Metric":
        if not isinstance(payload, Mapping):
            raise PerfSchemaError(
                f"metric {name!r}: expected an object, got {payload!r}"
            )
        if set(payload) != {"unit", "value"}:
            raise PerfSchemaError(
                f"metric {name!r}: keys {sorted(payload)} are not "
                f"['unit', 'value']"
            )
        return Metric(name, str(payload["unit"]), payload["value"])


@dataclass(frozen=True)
class BenchResult:
    """One benchmark run's canonical result document."""

    bench_id: str
    run: dict[str, Any] = field(default_factory=dict)
    metrics: tuple[Metric, ...] = ()

    def __post_init__(self) -> None:
        if not self.bench_id:
            raise PerfSchemaError("bench_id must be non-empty")
        if not self.metrics:
            raise PerfSchemaError(
                f"bench {self.bench_id!r}: needs at least one metric"
            )
        if len(self.values()) != len(self.metrics):
            raise PerfSchemaError(
                f"bench {self.bench_id!r}: duplicate metric names"
            )

    @property
    def scale(self) -> str | None:
        """The experiment scale the run used, if recorded."""
        scale = self.run.get("scale")
        return scale if isinstance(scale, str) else None

    def values(self) -> dict[str, tuple[str, float]]:
        """``{name: (unit, value)}``: what the gate compares."""
        return {m.name: (m.unit, m.value) for m in self.metrics}

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "bench_id": self.bench_id,
            "run": dict(self.run),
            "metrics": {m.name: m.to_dict() for m in self.metrics},
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "BenchResult":
        if not isinstance(payload, Mapping):
            raise PerfSchemaError(
                f"expected a bench-result object, got {payload!r}"
            )
        for key in ("schema_version", "bench_id", "metrics"):
            if key not in payload:
                raise PerfSchemaError(f"bench result missing {key!r}")
        if payload["schema_version"] != SCHEMA_VERSION:
            raise PerfSchemaError(
                f"bench {payload['bench_id']!r}: schema_version "
                f"{payload['schema_version']!r} (this code reads "
                f"{SCHEMA_VERSION})"
            )
        raw_metrics = payload["metrics"]
        if not isinstance(raw_metrics, Mapping):
            raise PerfSchemaError("metrics must be an object")
        run = payload.get("run", {})
        if not isinstance(run, Mapping):
            raise PerfSchemaError("run metadata must be an object")
        return BenchResult(
            bench_id=str(payload["bench_id"]),
            run=dict(run),
            metrics=tuple(
                Metric.from_dict(str(name), raw_metrics[name])
                for name in sorted(raw_metrics)
            ),
        )


def load_result(path: str | Path) -> BenchResult:
    """Read and validate one ``*.bench.json`` document."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PerfSchemaError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return BenchResult.from_dict(payload)
    except PerfSchemaError as exc:
        raise PerfSchemaError(f"{path}: {exc}") from exc


def load_results_dir(directory: str | Path) -> dict[str, BenchResult]:
    """All ``*.bench.json`` documents in ``directory``, by bench id."""
    results: dict[str, BenchResult] = {}
    for path in sorted(Path(directory).glob("*.bench.json")):
        result = load_result(path)
        if result.bench_id in results:
            raise PerfSchemaError(
                f"{directory}: duplicate bench id {result.bench_id!r}"
            )
        results[result.bench_id] = result
    return results
