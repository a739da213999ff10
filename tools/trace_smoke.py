#!/usr/bin/env python
"""CI smoke test for end-to-end trace propagation.

Boots the Flask origin app on a loopback port, drives a traced
function proxy over :class:`~repro.webapp.http_origin.HttpOriginClient`
against it, and asserts the tentpole observability claim: proxy-side
and origin-side spans for one query carry the *same* W3C trace id (the
proxy injects ``traceparent`` on its fetches; the origin adopts it).
The proxy app runs with live telemetry on, so the smoke also checks
that ``GET /timeseries``, ``GET /events``, and ``GET /health`` answer.

Artifacts written next to the benchmark results:

* ``benchmarks/results/trace_export.jsonl`` — the proxy's span export
  followed by the origin's (one JSON object per line; stitch on
  ``trace_id``);
* ``benchmarks/results/explain_recent.json`` — the proxy's
  ``/explain/recent`` snapshot (decision actions, candidate verdicts,
  SLO state).

Both tracers mint their ids from fixed seeds, so two runs write the
same span export apart from each span's ``wall_ms``.

Usage::

    python tools/trace_smoke.py [results_dir]
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading
from wsgiref.simple_server import make_server

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.proxy import FunctionProxy  # noqa: E402
from repro.obs.events import EventRecorder  # noqa: E402
from repro.obs.instrument import (  # noqa: E402
    OriginInstrumentation,
    ProxyInstrumentation,
)
from repro.obs.propagation import IdGenerator  # noqa: E402
from repro.obs.spans import SpanTracer  # noqa: E402
from repro.obs.timeseries import TimeSeriesRecorder  # noqa: E402
from repro.server.origin import OriginServer  # noqa: E402
from repro.skydata.generator import SkyCatalogConfig  # noqa: E402
from repro.webapp.http_origin import HttpOriginClient  # noqa: E402
from repro.webapp.origin_app import create_origin_app  # noqa: E402
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


def main(argv: list[str]) -> int:
    results_dir = pathlib.Path(
        argv[0] if argv else REPO_ROOT / "benchmarks" / "results"
    )
    results_dir.mkdir(parents=True, exist_ok=True)

    site = OriginServer.skyserver(SMOKE_SKY)
    origin = OriginServer(
        site.catalog,
        site.templates,
        instrumentation=OriginInstrumentation(
            tracer=SpanTracer(capacity=64, ids=IdGenerator(11))
        ),
    )
    origin_app = create_origin_app(origin)
    server = make_server("127.0.0.1", 0, origin_app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_port}"
    print(f"origin app listening on {url}")

    try:
        client = HttpOriginClient(url)
        proxy = FunctionProxy(
            client,
            client.templates,
            instrumentation=ProxyInstrumentation(
                tracer=SpanTracer(capacity=64, ids=IdGenerator(7)),
                timeseries=TimeSeriesRecorder(interval_ms=1_000.0),
                events=EventRecorder(capacity=64),
            ),
        )
        proxy_app = create_proxy_app(proxy).test_client()

        # Miss (full fetch), exact hit, then a contained sub-query:
        # every decision path that the explain snapshot should cover
        # without touching the origin twice for the same region.
        for radius in (10.0, 10.0, 4.0):
            params = dict(RADIAL, radius=radius)
            bound = client.templates.bind("skyserver.radial", params)
            response = proxy.serve(bound)
            print(
                f"radius={radius}: status="
                f"{response.record.status.value} "
                f"outcome={response.record.outcome.value}"
            )

        proxy_spans = proxy.obs.tracer.recent(50)
        origin_spans = origin.instrumentation.tracer.recent(50)
        proxy_trace_ids = {s["trace_id"] for s in proxy_spans}
        origin_trace_ids = {s["trace_id"] for s in origin_spans}
        shared = proxy_trace_ids & origin_trace_ids
        print(
            f"proxy spans: {len(proxy_spans)} "
            f"({len(proxy_trace_ids)} traces); "
            f"origin spans: {len(origin_spans)} "
            f"({len(origin_trace_ids)} traces); shared: {len(shared)}"
        )
        if not shared:
            print("FAIL: no trace id appears on both sides")
            return 1

        explain = proxy_app.get("/explain/recent?n=50").get_json()
        actions = explain["actions"]
        print(f"decision actions: {actions}")
        if not explain["decisions"]:
            print("FAIL: /explain/recent returned no decisions")
            return 1

        # The live-telemetry surface answers on all three endpoints.
        series = proxy_app.get("/timeseries").get_json()
        events = proxy_app.get("/events").get_json()
        health_response = proxy_app.get("/health")
        health = health_response.get_json()
        print(
            f"telemetry: {len(series['samples'])} sample(s), "
            f"{events['total']} event(s), health={health['status']}"
        )
        if not series["enabled"] or not events["enabled"]:
            print("FAIL: telemetry recorders did not install")
            return 1
        if health_response.status_code != 200 or not health["enabled"]:
            print("FAIL: /health did not answer an enabled verdict")
            return 1

        export = results_dir / "trace_export.jsonl"
        export.write_text(
            proxy.obs.tracer.export_jsonl()
            + origin.instrumentation.tracer.export_jsonl()
        )
        snapshot = results_dir / "explain_recent.json"
        snapshot.write_text(
            json.dumps(explain, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {export} and {snapshot}")
        print(f"OK: {len(shared)} stitched trace(s)")
        return 0
    finally:
        server.shutdown()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
