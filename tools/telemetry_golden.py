#!/usr/bin/env python
"""Capture every telemetry surface of one seeded scenario as JSON.

``capture()`` drives one proxy through a scenario that touches each
telemetry path — exact / contained / overlap / disjoint radial and
rectangular queries under a byte budget that evicts, form requests
(the ``bind`` root span), an origin outage with timeouts and retries
(the gateway charging ``origin`` inside the ``origin`` phase), a
data-version bump, two quota sheds, and a warm restart from the
journal — with the tracer (seeded ids), the profiler, the time series
and the flight recorder all on, and returns what each surface then
shows.

``tests/obs/golden/spine.json`` is this tool's output at the commit
*before* the tracer and the profiler became readers of one stage tree;
``tests/obs/test_spine_parity.py`` compares ``capture()`` against it.
Regenerating the golden is re-running this tool by hand::

    python tools/telemetry_golden.py > tests/obs/golden/spine.json

Wall-clock readings are not part of the capture: the tracer and the
profiler get a clock that stands still, the per-phase ``wall_ms`` span
attribute is masked, the profile's wall fields and the
``proxy_check_wall_ms`` bucket / sum lines are dropped.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
import tempfile
from typing import Any

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.admission import AdmissionConfig, TenantQuota  # noqa: E402
from repro.core.proxy import FunctionProxy  # noqa: E402
from repro.faults.plan import FaultPlan, OutageWindow  # noqa: E402
from repro.obs import (  # noqa: E402
    EventRecorder,
    ProxyInstrumentation,
    SpanTracer,
    TimeSeriesRecorder,
)
from repro.obs.profiling import Profiler  # noqa: E402
from repro.obs.propagation import IdGenerator  # noqa: E402
from repro.persistence.persister import CachePersister  # noqa: E402
from repro.server.origin import OriginServer  # noqa: E402
from repro.skydata.generator import SkyCatalogConfig  # noqa: E402
from repro.templates.skyserver_templates import (  # noqa: E402
    RADIAL_TEMPLATE_ID,
    RECT_TEMPLATE_ID,
)

GOLDEN_SKY = SkyCatalogConfig(
    n_objects=8_000,
    ra_min=160.0,
    ra_max=168.0,
    dec_min=5.0,
    dec_max=11.0,
    seed=42,
)
SEED = 339
QUERIES = 300
#: Tight enough that admissions keep evicting.
CACHE_BYTES = 120_000
#: The origin is down for this stretch of simulated time; outside it
#: one attempt in twenty hangs until the per-attempt timeout.
PLAN = FaultPlan(
    seed=5,
    outages=(OutageWindow(start_ms=90_000.0, end_ms=110_000.0),),
    timeout_rate=0.05,
)
#: Once the breaker is open a failed query costs ~10 simulated ms, so
#: the outage would never end by serving alone: the clients go quiet
#: for a minute here, which outlasts the outage and the cooldown.
QUIET_AT = 110
QUIET_MS = 60_000.0
BUMP_AT = 150
RESTART_AT = 200
SHED_AT = (40, 41, 42)  # the first passes on the burst token
FORM_EVERY = 29
OPEN_MAGNITUDES = {"r_min": -9999.0, "r_max": 9999.0}


def frozen_clock() -> float:
    return 0.0


def _queries(rng: random.Random) -> list[tuple[str, dict[str, float]]]:
    """A seeded mix of fresh, repeated, zoomed-in and shifted queries."""
    out: list[tuple[str, dict[str, float]]] = []
    while len(out) < QUERIES:
        roll = rng.random()
        if out and roll < 0.2:
            out.append(rng.choice(out))  # exact repeat
            continue
        if out and roll < 0.55:
            template, params = rng.choice(out)
            params = dict(params)
            if template == RADIAL_TEMPLATE_ID:
                if roll < 0.4:
                    params["radius"] = round(params["radius"] * 0.6, 3)
                else:  # shifted: overlaps its parent
                    params["ra"] = round(
                        params["ra"] + params["radius"] / 90.0, 4
                    )
            elif roll < 0.4:
                params["ra_max"] = round(
                    (params["ra_min"] + params["ra_max"]) / 2.0, 4
                )
            else:
                shift = (params["ra_max"] - params["ra_min"]) / 2.0
                params["ra_min"] = round(params["ra_min"] + shift, 4)
                params["ra_max"] = round(params["ra_max"] + shift, 4)
            out.append((template, params))
            continue
        ra = round(rng.uniform(161.0, 167.0), 3)
        dec = round(rng.uniform(6.0, 10.0), 3)
        if rng.random() < 0.7:
            out.append(
                (
                    RADIAL_TEMPLATE_ID,
                    {
                        "ra": ra,
                        "dec": dec,
                        "radius": float(rng.choice((8, 12, 18, 25))),
                        **OPEN_MAGNITUDES,
                    },
                )
            )
        else:
            width = rng.choice((0.3, 0.5, 0.8))
            out.append(
                (
                    RECT_TEMPLATE_ID,
                    {
                        "ra_min": ra,
                        "ra_max": round(ra + width, 3),
                        "dec_min": dec,
                        "dec_max": round(dec + width, 3),
                        **OPEN_MAGNITUDES,
                    },
                )
            )
    return out


def _mask_walls(span: dict[str, Any]) -> dict[str, Any]:
    attrs = span.get("attrs")
    if attrs is not None and "wall_ms" in attrs:
        attrs["wall_ms"] = "<wall>"
    for child in span.get("children", ()):
        _mask_walls(child)
    return span


def _exposition(obs: ProxyInstrumentation, exemplars: bool) -> list[str]:
    return [
        line
        for line in obs.registry.exposition(exemplars=exemplars).splitlines()
        if not line.startswith(
            ("proxy_check_wall_ms_bucket", "proxy_check_wall_ms_sum")
        )
    ]


def _profile(obs: ProxyInstrumentation) -> dict[str, Any]:
    snapshot = obs.profiler.snapshot()
    for stage in snapshot["stages"].values():
        for key in [k for k in stage if k.endswith("wall_ms")]:
            del stage[key]
    return snapshot


def capture() -> dict[str, Any]:
    origin = OriginServer.skyserver(GOLDEN_SKY)
    templates = origin.templates
    obs = ProxyInstrumentation(
        tracer=SpanTracer(
            capacity=2 * QUERIES, ids=IdGenerator(7), clock=frozen_clock
        ),
        profiler=Profiler(clock=frozen_clock),
        timeseries=TimeSeriesRecorder(interval_ms=5_000.0, capacity=32),
        events=EventRecorder(capacity=512),
    )
    records: list[dict[str, Any]] = []

    with tempfile.TemporaryDirectory() as state:

        def build(**kwargs: Any) -> FunctionProxy:
            return FunctionProxy(
                origin,
                templates,
                cache_bytes=CACHE_BYTES,
                instrumentation=obs,
                persistence=CachePersister(state, snapshot_every=16),
                admission=AdmissionConfig(
                    quotas={
                        "metered": TenantQuota(rate_per_s=0.0001, burst=1.0)
                    }
                ),
                **kwargs,
            )

        proxy = build(fault_plan=PLAN)
        for position, (template, params) in enumerate(
            _queries(random.Random(SEED))
        ):
            if position == QUIET_AT:
                proxy.clock.advance(QUIET_MS)
            if position == BUMP_AT:
                origin.bump_data_version()
            if position == RESTART_AT:
                # Warm restart: a new proxy over the same journal, the
                # same telemetry bundle, the clock carried over.
                proxy = build(clock=proxy.clock)
            if position % FORM_EVERY == 0 and template == RADIAL_TEMPLATE_ID:
                response = proxy.serve_form(
                    "Radial",
                    {
                        "ra": str(params["ra"]),
                        "dec": str(params["dec"]),
                        "radius": str(params["radius"]),
                    },
                )
            else:
                tenant = "metered" if position in SHED_AT else "default"
                response = proxy.serve(
                    templates.bind(template, params), tenant=tenant
                )
            record = response.record.to_dict(include_wall=False)
            # Key order is part of the contract; JSON objects lose it.
            record["steps_ms"] = list(record["steps_ms"].items())
            records.append(record)
        final_health = proxy.obs.health()

    return {
        "metrics": _exposition(obs, exemplars=False),
        "metrics_exemplars": _exposition(obs, exemplars=True),
        "trace": [
            _mask_walls(json.loads(line))
            for line in obs.tracer.export_jsonl().splitlines()
        ],
        "profile": _profile(obs),
        "records": records,
        "decisions": obs.decisions.recent(64),
        "events": obs.events.snapshot(),
        "timeseries": obs.timeseries.snapshot(),
        "health": final_health,
    }


def render(captured: dict[str, Any]) -> str:
    """Canonical JSON, one line per section (per element of a list
    section), so a drifted golden diffs by query, not by file."""

    def compact(value: Any) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    sections = []
    for key in sorted(captured):
        value = captured[key]
        if isinstance(value, list):
            body = ",\n".join(compact(item) for item in value)
            sections.append(f"{compact(key)}:[\n{body}\n]")
        else:
            sections.append(f"{compact(key)}:{compact(value)}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main() -> int:
    sys.stdout.write(render(capture()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
