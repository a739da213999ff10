"""A query's telemetry is paid for when someone reads it — counted.

Nothing here is timed.  The metrics fold resolves each label set
through ``labels()`` once and holds the child; the explain trace keeps
the regions and the remainder it was told about and renders them in
``to_dict``.  So a steady-state query makes no ``labels()`` call and no
``region_summary`` call, and what ``/metrics`` and ``/explain`` say is
what they said when every query resolved and rendered afresh.  With
neither the tracer nor the profiler on, a query builds only its root
and phase stages, and every record, decision and metric is what it is
with both on.
"""

import pytest

from repro.core import proxy as proxy_module
from repro.core import remainder as remainder_module
from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryStatus
from repro.obs import ProxyInstrumentation, SpanTracer, decisions
from repro.obs.metrics import _Metric
from repro.obs.profiling import Profiler
from repro.obs.propagation import IdGenerator
from repro.obs.spans import Stage

OPEN = {"r_min": -9999.0, "r_max": 9999.0}
#: Small enough that the warm-up already evicts.
CACHE_BYTES = 30_000


def radial(templates, ra, dec, radius):
    return templates.bind(
        "skyserver.radial", {"ra": ra, "dec": dec, "radius": radius, **OPEN}
    )


def workload(templates, first, count):
    """Misses, exact and contained hits and overlaps on two templates;
    every slice of ten repeats the same statuses and steps around a
    centre of its own."""
    queries = []
    for i in range(first, first + count):
        slice_, kind = divmod(i, 10)
        ra, dec = 160.6 + 1.4 * (slice_ % 5), 5.6 + 1.0 * (slice_ // 5)
        if kind == 9:
            queries.append(
                templates.bind(
                    "skyserver.rect",
                    {
                        "ra_min": ra, "ra_max": ra + 0.2,
                        "dec_min": dec, "dec_max": dec + 0.2, **OPEN,
                    },
                )
            )
        elif kind in (3, 7):  # overlaps what the slice has cached
            queries.append(radial(templates, ra + 0.03 * kind, dec, 20.0))
        else:  # 0 misses; then contained, exact, contained, ...
            queries.append(
                radial(templates, ra, dec, 20.0 if kind % 2 == 0 else 8.0)
            )
    return queries


def stable_lines(text):
    """``/metrics`` without the one family that holds real wall time."""
    return [
        line
        for line in text.splitlines()
        if not line.startswith(
            ("proxy_check_wall_ms_bucket", "proxy_check_wall_ms_sum")
        )
    ]


def test_a_steady_state_query_resolves_no_label_and_renders_no_region(
    origin, monkeypatch
):
    templates = origin.templates
    proxy = FunctionProxy(origin, templates, cache_bytes=CACHE_BYTES)
    for bound in workload(templates, 0, 50):
        proxy.serve(bound)
    warm = {record.status for record in proxy.stats.records}
    assert {
        QueryStatus.DISJOINT, QueryStatus.EXACT,
        QueryStatus.CONTAINED, QueryStatus.OVERLAP,
    } <= warm

    calls = {"labels": 0, "region_summary": 0}
    real_labels = _Metric.labels
    real_summary = decisions.region_summary

    def counted_labels(self, **labels):
        calls["labels"] += 1
        return real_labels(self, **labels)

    def counted_summary(region):
        calls["region_summary"] += 1
        return real_summary(region)

    with monkeypatch.context() as patched:
        patched.setattr(_Metric, "labels", counted_labels)
        patched.setattr(decisions, "region_summary", counted_summary)
        patched.setattr(remainder_module, "region_summary", counted_summary)
        for bound in workload(templates, 50, 200):
            proxy.serve(bound)
        assert calls == {"labels": 0, "region_summary": 0}
        # The reader pays: one overlap's trace renders its own region,
        # its candidates' and the remainder's base and holes.
        overlap = next(
            record.index
            for record in proxy.stats.records[50:]
            if record.status is QueryStatus.OVERLAP
        )
        proxy.obs.decisions.get(overlap).to_dict()
        assert calls["region_summary"] >= 4
    assert {r.status for r in proxy.stats.records[50:]} <= warm
    assert proxy.obs.registry.get("proxy_cache_evictions_total").value > 5

    # A twin that forgets every held child before each query goes
    # through labels() every time, as the fold used to — same text.
    twin = FunctionProxy(origin, templates, cache_bytes=CACHE_BYTES)
    for bound in workload(templates, 0, 250):
        twin.obs._held.clear()
        twin.serve(bound)
    for exemplars in (False, True):
        assert stable_lines(
            proxy.obs.registry.exposition(exemplars=exemplars)
        ) == stable_lines(twin.obs.registry.exposition(exemplars=exemplars))
    assert proxy.obs.slo.snapshot() == twin.obs.slo.snapshot()


class TestExplainRendersOnRead:
    def test_an_evicted_candidate_is_still_explained(self, origin):
        templates = origin.templates
        proxy = FunctionProxy(origin, templates)
        proxy.serve(radial(templates, 164.0, 8.0, 10.0))
        [entry] = proxy.cache.entries()
        region = entry.region
        proxy.serve(radial(templates, 164.0, 8.0, 4.0))  # contained
        proxy.cache.clear()  # after the query: the entry is gone
        assert proxy.cache.entries() == []
        [candidate] = proxy.obs.decisions.get(2).to_dict()["candidates"]
        assert candidate["entry_id"] == entry.entry_id
        assert candidate["relation"] == "contained"
        assert candidate["entry_region"] == decisions.region_summary(region)

    def test_explain_serves_the_remainder_built_at_serve_time(
        self, origin, monkeypatch
    ):
        pytest.importorskip("flask")
        from repro.webapp.proxy_app import create_proxy_app

        built = []
        real_build = proxy_module.build_remainder

        def capturing_build(bound, holes):
            remainder = real_build(bound, holes)
            built.append(remainder.geometry())
            return remainder

        monkeypatch.setattr(proxy_module, "build_remainder", capturing_build)
        proxy = FunctionProxy(origin, origin.templates)
        client = create_proxy_app(proxy).test_client()
        client.get("/search/Radial?ra=164&dec=8&radius=10")
        shifted = client.get("/search/Radial?ra=164.1&dec=8&radius=10")
        assert shifted.headers["X-Cache-Status"] == "overlap"
        [geometry] = built
        proxy.cache.clear()
        explained = client.get("/explain/2").get_json()["remainder"]
        # What the origin received: the base and the holes, no SQL.
        assert explained == geometry
        assert explained["n_holes"] == 1


class TestNoTreeWithoutAReader:
    def test_readers_off_equals_readers_on(self, origin):
        templates = origin.templates
        quiet = FunctionProxy(origin, templates, cache_bytes=CACHE_BYTES)
        read = FunctionProxy(
            origin,
            templates,
            cache_bytes=CACHE_BYTES,
            instrumentation=ProxyInstrumentation(
                tracer=SpanTracer(ids=IdGenerator(seed=7)),
                profiler=Profiler(),
            ),
        )
        for bound in workload(templates, 0, 200):
            quiet.serve(bound)
            read.serve(bound)

        def records(proxy):
            return [r.to_dict(include_wall=False) for r in proxy.stats.records]

        def explained(proxy):
            out = []
            for record in proxy.stats.records:
                payload = proxy.obs.decisions.get(record.index).to_dict()
                payload.pop("trace_id", None)
                out.append(payload)
            return out

        assert records(quiet) == records(read)
        assert explained(quiet) == explained(read)
        assert stable_lines(quiet.obs.registry.exposition()) == stable_lines(
            read.obs.registry.exposition()
        )
        assert quiet.obs.slo.snapshot() == read.obs.slo.snapshot()
        assert read.obs.tracer.recent(1)
        assert read.obs.profiler.snapshot()["stages"]

    def test_a_hit_builds_only_its_root_and_phases(self, origin, monkeypatch):
        templates = origin.templates
        proxy = FunctionProxy(origin, templates, cache_bytes=CACHE_BYTES)
        for bound in workload(templates, 0, 50):
            proxy.serve(bound)
        built = []
        real_init = Stage.__init__

        def counted_init(self, open_, name, *args, **kwargs):
            built.append(name)
            real_init(self, open_, name, *args, **kwargs)

        monkeypatch.setattr(Stage, "__init__", counted_init)
        stages = {}
        for bound in workload(templates, 50, 30):
            built.clear()
            record = proxy.serve(bound).record
            stages.setdefault(record.status, []).append(list(built))
        assert stages[QueryStatus.CONTAINED]
        assert all(
            names == ["query", "check", "local_eval"]
            for names in stages[QueryStatus.CONTAINED]
        )
        assert stages[QueryStatus.EXACT]
        assert all(names == ["query"] for names in stages[QueryStatus.EXACT])
