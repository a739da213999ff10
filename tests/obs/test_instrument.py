"""Instrumentation threaded through proxy, cache, origin, network."""

import pytest

from repro.core.proxy import FunctionProxy
from repro.core.schemes import CachingScheme
from repro.harness.config import ExperimentScale
from repro.harness.runner import ExperimentRunner
from repro.obs import (
    OriginInstrumentation,
    ProxyInstrumentation,
    SpanTracer,
)


def build_proxy(origin, tracer=None, **kwargs):
    obs = ProxyInstrumentation(tracer=tracer)
    return FunctionProxy(
        origin, origin.templates, instrumentation=obs, **kwargs
    )


def serve(proxy, templates, params):
    return proxy.serve(templates.bind("skyserver.radial", params))


class TestTracedProxy:
    def test_query_lifecycle_spans_nest(self, origin, radial_params):
        proxy = build_proxy(origin, tracer=SpanTracer())
        serve(proxy, origin.templates, radial_params)  # disjoint
        serve(proxy, origin.templates, radial_params)  # exact
        serve(
            proxy,
            origin.templates,
            dict(radial_params, radius=4.0),
        )  # contained

        disjoint, exact, contained = proxy.obs.tracer.recent()
        names = [c["name"] for c in disjoint["children"]]
        assert names == ["parse", "check", "origin", "transfer",
                         "maintenance"]
        assert disjoint["attrs"]["status"] == "disjoint"
        # The relation check nests inside the description check.
        check = disjoint["children"][1]
        assert [c["name"] for c in check["children"]] == ["relate"]

        assert [c["name"] for c in exact["children"]] == ["parse", "read"]
        assert exact["attrs"]["status"] == "exact"
        assert contained["attrs"]["status"] == "contained"
        assert "local_eval" in [c["name"] for c in contained["children"]]

    def test_span_sim_charges_match_record_steps(self, origin,
                                                 radial_params):
        proxy = build_proxy(origin, tracer=SpanTracer())
        response = serve(proxy, origin.templates, radial_params)
        [root] = proxy.obs.tracer.recent()
        by_name: dict[str, float] = {}
        for child in root["children"]:
            by_name[child["name"]] = (
                by_name.get(child["name"], 0.0) + child["sim_ms"]
            )
        for step, sim_ms in response.record.steps_ms.items():
            # Span dicts round sim_ms to 6 decimals for JSONL export.
            assert by_name[step] == pytest.approx(sim_ms, abs=1e-5), step

    def test_serve_form_emits_bind_span(self, origin):
        proxy = build_proxy(origin, tracer=SpanTracer())
        proxy.serve_form(
            "Radial", {"ra": "164", "dec": "8", "radius": "10"}
        )
        names = [root["name"] for root in proxy.obs.tracer.recent()]
        assert names == ["bind", "query"]


class TestNullModeProxy:
    def test_default_proxy_traces_nothing(self, origin, radial_params):
        proxy = FunctionProxy(origin, origin.templates)
        assert not proxy.obs.tracer.enabled
        serve(proxy, origin.templates, radial_params)
        serve(proxy, origin.templates, radial_params)
        assert proxy.obs.tracer.spans_started == 0
        assert proxy.obs.tracer.recent() == []
        assert proxy.obs.tracer.export_jsonl() == ""

    def test_null_mode_still_measures_check_wall(self, origin,
                                                 radial_params):
        proxy = FunctionProxy(origin, origin.templates)
        serve(proxy, origin.templates, radial_params)
        record = serve(
            proxy, origin.templates, dict(radial_params, radius=4.0)
        ).record
        assert "check" in record.steps_ms
        assert record.check_wall_ms > 0.0

    def test_null_mode_still_counts_metrics(self, origin, radial_params):
        proxy = FunctionProxy(origin, origin.templates)
        serve(proxy, origin.templates, radial_params)
        serve(proxy, origin.templates, radial_params)
        exposition = proxy.obs.registry.exposition()
        assert (
            'proxy_queries_total{status="exact",'
            'template="skyserver.radial"} 1' in exposition
        )
        assert (
            'proxy_queries_total{status="disjoint",'
            'template="skyserver.radial"} 1' in exposition
        )


class TestProxyMetrics:
    def test_cache_occupancy_gauges_track_manager(self, origin,
                                                  radial_params):
        proxy = build_proxy(origin)
        serve(proxy, origin.templates, radial_params)
        serve(
            proxy, origin.templates, dict(radial_params, ra=166.0)
        )
        assert proxy.obs.cache_bytes.value == proxy.cache.current_bytes
        assert proxy.obs.cache_entries.value == len(proxy.cache)
        assert proxy.obs.cache_insertions.value == proxy.cache.insertions

    def test_eviction_counter(self, origin, radial_params):
        proxy = build_proxy(origin, cache_bytes=2_000)
        for ra in (161.0, 163.0, 165.0, 167.0):
            serve(proxy, origin.templates, dict(radial_params, ra=ra,
                                                radius=6.0))
        assert proxy.cache.evictions > 0
        assert proxy.obs.cache_evictions.value == proxy.cache.evictions

    def test_invalidation_counter(self, origin, radial_params):
        proxy = build_proxy(origin)
        serve(proxy, origin.templates, radial_params)
        origin.bump_data_version()
        try:
            serve(proxy, origin.templates, radial_params)
        finally:
            origin.data_version = 1
            origin.instrumentation.data_version.set(1)
        assert proxy.invalidations == 1
        assert proxy.obs.cache_invalidations.value == 1

    def test_origin_and_network_accounting(self, origin, radial_params):
        proxy = build_proxy(origin)
        record = serve(proxy, origin.templates, radial_params).record
        assert record.contacted_origin
        assert proxy.obs.origin_requests.value == 1
        assert proxy.obs.origin_bytes.value == record.origin_bytes
        hop = proxy.obs.transfer_bytes.labels(hop="origin")
        assert hop.value == record.origin_bytes + proxy.topology.request_bytes

    def test_step_histogram_covers_all_steps(self, origin, radial_params):
        proxy = build_proxy(origin)
        record = serve(proxy, origin.templates, radial_params).record
        for step in record.steps_ms:
            assert proxy.obs.step_ms.labels(step=step).count == 1

    def test_check_wall_histogram_only_for_checked_queries(
        self, origin, radial_params
    ):
        proxy = build_proxy(origin)
        serve(proxy, origin.templates, radial_params)  # disjoint: checked
        serve(proxy, origin.templates, radial_params)  # exact: no check
        histogram = proxy.obs.check_wall_ms
        assert sum(c.count for c in histogram._children.values()) == 1


class TestOriginInstrumentation:
    def test_request_kinds_counted(self, origin, radial_params):
        before = origin.instrumentation.requests.labels(kind="form").value
        origin.execute_form(
            "Radial", {"ra": "164", "dec": "8", "radius": "5"}
        )
        after = origin.instrumentation.requests.labels(kind="form").value
        assert after == before + 1

    def test_origin_spans_when_traced(self):
        from repro.server.origin import OriginServer
        from repro.skydata.generator import SkyCatalogConfig

        base = OriginServer.skyserver(
            SkyCatalogConfig(
                n_objects=500, ra_min=160.0, ra_max=168.0,
                dec_min=5.0, dec_max=11.0, seed=7,
            )
        )
        traced = OriginServer(
            base.catalog,
            base.templates,
            instrumentation=OriginInstrumentation(tracer=SpanTracer()),
        )
        traced.execute_sql("SELECT TOP 2 objID FROM PhotoPrimary")
        [root] = traced.instrumentation.tracer.recent()
        assert root["name"] == "origin.sql"
        assert root["attrs"]["rows"] == 2


class TestRunnerSnapshots:
    def test_run_result_carries_and_writes_snapshot(self, tmp_path):
        scale = ExperimentScale.quick().with_trace_length(30)
        runner = ExperimentRunner(scale, snapshot_dir=tmp_path)
        result = runner.run(
            CachingScheme.FULL_SEMANTIC, "array", cache_fraction=None
        )
        snapshot = result.metrics_snapshot
        assert snapshot["proxy_queries_total"]["type"] == "counter"
        total = sum(snapshot["proxy_queries_total"]["values"].values())
        assert total == len(result.stats)

        path = tmp_path / f"metrics-{result.label()}.json"
        assert path.exists()
        import json

        on_disk = json.loads(path.read_text())
        assert on_disk == snapshot
