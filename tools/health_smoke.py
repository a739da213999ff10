#!/usr/bin/env python
"""CI smoke test for the live-telemetry health surface.

Boots an in-process function proxy with the time-series recorder and
the flight recorder (and so the health verdict) enabled, then walks one
outage-and-recovery arc and asserts the headline health claim:

* ``GET /health`` answers ``healthy`` on a warm, fault-free proxy;
* during an injected origin outage (``POST /faults``), the circuit
  breaker opens and ``/health`` answers ``degraded`` with the pinned
  ``HR05`` (breaker-open) rule flagged — still HTTP 200, because a
  degraded proxy is *answering*, just worse;
* after the outage is lifted (``DELETE /faults``) and the breaker
  closes, ``/health`` answers ``healthy`` again;
* the flight recorder's timeline shows the arc: ``EV01``
  (breaker-open), ``EV03`` (breaker-closed), and ``EV11``
  (health-state-change) all present on ``GET /events``.

Artifacts written next to the benchmark results:

* ``benchmarks/results/health_smoke.json`` — the three health
  verdicts, the final ``/timeseries`` snapshot, and the ``/events``
  buffer.

Usage::

    python tools/health_smoke.py [results_dir]
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.proxy import FunctionProxy  # noqa: E402
from repro.faults.resilience import BreakerState  # noqa: E402
from repro.obs.events import EventRecorder  # noqa: E402
from repro.obs.instrument import ProxyInstrumentation  # noqa: E402
from repro.obs.timeseries import TimeSeriesRecorder  # noqa: E402
from repro.server.origin import OriginServer  # noqa: E402
from repro.skydata.generator import SkyCatalogConfig  # noqa: E402
from repro.webapp.proxy_app import create_proxy_app  # noqa: E402

SMOKE_SKY = SkyCatalogConfig(
    n_objects=8_000,
    ra_min=160.0,
    ra_max=168.0,
    dec_min=5.0,
    dec_max=11.0,
    seed=42,
)
RADIAL = {
    "ra": 164.0,
    "dec": 8.0,
    "radius": 10.0,
    "r_min": -9999.0,
    "r_max": 9999.0,
}
#: A bound on the serve loops below; every loop exits far earlier.
MAX_SERVES = 200


def main(argv: list[str]) -> int:
    results_dir = pathlib.Path(
        argv[0] if argv else REPO_ROOT / "benchmarks" / "results"
    )
    results_dir.mkdir(parents=True, exist_ok=True)

    origin = OriginServer.skyserver(SMOKE_SKY)
    proxy = FunctionProxy(
        origin,
        origin.templates,
        instrumentation=ProxyInstrumentation(
            timeseries=TimeSeriesRecorder(interval_ms=1_000.0),
            events=EventRecorder(capacity=256),
        ),
    )
    app = create_proxy_app(proxy).test_client()

    def serve(ra: float, dec: float, radius: float = 10.0) -> None:
        bound = origin.templates.bind(
            "skyserver.radial", dict(RADIAL, ra=ra, dec=dec, radius=radius)
        )
        proxy.serve(bound)

    # Warm the cache and cross a few sampling windows fault-free.
    for step in range(4):
        serve(164.0, 8.0)
        proxy.clock.advance(1_000.0)
    baseline = app.get("/health")
    print(f"baseline: {baseline.status_code} {baseline.get_json()['status']}")
    if baseline.get_json()["status"] != "healthy":
        print("FAIL: warm fault-free proxy is not healthy")
        return 1

    # A permanent outage from t=0; misses drive the breaker open.
    installed = app.post(
        "/faults",
        json={"outages": [{"start_ms": 0.0, "end_ms": 1e12}]},
    )
    if installed.status_code != 200:
        print(f"FAIL: POST /faults -> {installed.status_code}")
        return 1
    for step in range(MAX_SERVES):
        serve(161.0 + 0.05 * step, 6.0)
        if proxy.breaker.state is BreakerState.OPEN:
            break
    else:
        print("FAIL: breaker never opened under the outage")
        return 1
    # One more serve after the transition lands a sample that carries
    # the open breaker gauge.
    serve(164.0, 8.0)
    proxy.clock.advance(1_000.0)
    serve(164.0, 8.0)
    during = app.get("/health")
    report = during.get_json()
    flagged = {
        rule["id"] for rule in report["rules"] if rule["status"] != "healthy"
    }
    print(
        f"during outage: {during.status_code} {report['status']} "
        f"flagged={sorted(flagged)}"
    )
    if during.status_code != 200 or report["status"] != "degraded":
        print("FAIL: outage verdict should be degraded (HTTP 200)")
        return 1
    if "HR05" not in flagged:
        print("FAIL: HR05 (breaker-open) did not flag the outage")
        return 1

    # Lift the outage, wait out the cooldown, and let a probe close
    # the breaker; warm hits then repaint the newest windows healthy.
    app.delete("/faults")
    proxy.clock.advance(proxy.breaker.cooldown_ms + 1_000.0)
    for step in range(MAX_SERVES):
        serve(166.0, 9.0, radius=2.0 + 0.05 * step)
        if proxy.breaker.state is BreakerState.CLOSED:
            break
    else:
        print("FAIL: breaker never closed after the outage lifted")
        return 1
    for step in range(4):
        serve(164.0, 8.0)
        proxy.clock.advance(1_000.0)
    after = app.get("/health")
    print(f"after recovery: {after.status_code} {after.get_json()['status']}")
    if after.status_code != 200 or after.get_json()["status"] != "healthy":
        print("FAIL: recovered proxy should be healthy again")
        return 1

    events = app.get("/events").get_json()
    codes = {event["code"] for event in events["events"]}
    print(f"event codes on the timeline: {sorted(codes)}")
    for required in ("EV01", "EV03", "EV11"):
        if required not in codes:
            print(f"FAIL: {required} missing from the flight recorder")
            return 1
    series = app.get("/timeseries").get_json()
    if not series["samples"]:
        print("FAIL: /timeseries retained no samples")
        return 1

    artifact = results_dir / "health_smoke.json"
    artifact.write_text(
        json.dumps(
            {
                "baseline": baseline.get_json(),
                "during_outage": report,
                "after_recovery": after.get_json(),
                "timeseries": series,
                "events": events,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {artifact}")
    print(f"OK: health arc healthy -> degraded -> healthy over {len(series['samples'])} windows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
