"""Harness observability plumbing: config switches and run artifacts."""

import json

from repro.core.schemes import CachingScheme
from repro.harness.config import ExperimentScale, ObservabilityConfig
from repro.harness.runner import ExperimentRunner


class TestObservabilityConfig:
    def test_defaults(self):
        obs = ObservabilityConfig()
        assert obs.tracing is False
        assert obs.profiling is False
        assert obs.timeseries is False
        assert obs.events is False

    def test_with_observability(self):
        scale = ExperimentScale.quick()
        obs = ObservabilityConfig(tracing=True)
        traced = scale.with_observability(obs)
        assert traced.obs is obs
        assert scale.obs.tracing is False  # the original is untouched


class TestRunnerInstrumentation:
    def test_default_scale_uses_null_tracer(self):
        runner = ExperimentRunner(
            ExperimentScale.quick().with_trace_length(5)
        )
        proxy = runner.build_proxy(CachingScheme.FULL_SEMANTIC)
        assert proxy.obs.tracer.enabled is False
        assert proxy.obs.decisions.capacity == 256

    def test_tracing_scale_builds_real_tracer(self):
        scale = ExperimentScale.quick().with_trace_length(5)
        scale = scale.with_observability(
            ObservabilityConfig(tracing=True)
        )
        proxy = ExperimentRunner(scale).build_proxy(
            CachingScheme.FULL_SEMANTIC
        )
        assert proxy.obs.tracer.enabled is True
        assert proxy.obs.tracer.capacity == 256
        assert proxy.obs.decisions.capacity == 256

    def test_run_writes_observability_artifacts(self, tmp_path):
        scale = ExperimentScale.quick().with_trace_length(12)
        scale = scale.with_observability(
            ObservabilityConfig(tracing=True)
        )
        runner = ExperimentRunner(scale, snapshot_dir=tmp_path)
        result = runner.run(CachingScheme.FULL_SEMANTIC)
        label = result.label()

        decisions = json.loads(
            (tmp_path / f"decisions-{label}.json").read_text()
        )
        assert decisions["decisions"]
        assert sum(decisions["actions"].values()) == len(
            decisions["decisions"]
        )
        assert "skyserver.radial" in decisions["slo"]

        trace_path = tmp_path / f"trace-{label}.jsonl"
        spans = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert spans
        assert all("trace_id" in span for span in spans)
        # Explain records link into the exported spans.
        trace_ids = {span["trace_id"] for span in spans}
        linked = [
            d for d in decisions["decisions"] if d.get("trace_id")
        ]
        assert linked
        assert any(d["trace_id"] in trace_ids for d in linked)

    def test_untraced_run_still_writes_decisions(self, tmp_path):
        scale = ExperimentScale.quick().with_trace_length(8)
        runner = ExperimentRunner(scale, snapshot_dir=tmp_path)
        result = runner.run(CachingScheme.FULL_SEMANTIC)
        label = result.label()
        assert (tmp_path / f"decisions-{label}.json").exists()
        assert not (tmp_path / f"trace-{label}.jsonl").exists()


class TestProfiling:
    def test_profiling_defaults_off(self):
        obs = ObservabilityConfig()
        assert obs.profiling is False

    def test_unprofiled_run_writes_no_profile(self, tmp_path):
        scale = ExperimentScale.quick().with_trace_length(8)
        runner = ExperimentRunner(scale, snapshot_dir=tmp_path)
        result = runner.run(CachingScheme.FULL_SEMANTIC)
        profiles = list(tmp_path.glob("profile-*.json"))
        assert profiles == []
        # And the proxy paid only the no-op profiler.
        proxy = runner.build_proxy(CachingScheme.FULL_SEMANTIC)
        assert proxy.obs.profiler.enabled is False
        assert len(result.stats) > 0

    def test_profiled_run_writes_artifact(self, tmp_path):
        scale = ExperimentScale.quick().with_trace_length(25)
        scale = scale.with_observability(
            ObservabilityConfig(profiling=True)
        )
        runner = ExperimentRunner(scale, snapshot_dir=tmp_path)
        result = runner.run(CachingScheme.FULL_SEMANTIC)
        label = result.label()

        profile = json.loads(
            (tmp_path / f"profile-{label}.json").read_text()
        )
        assert profile["enabled"] is True
        assert profile["top_k"] == 10
        stages = profile["stages"]
        # Hot-path stages saw real traffic during the replay.
        for stage in ("parse", "check", "probe.array"):
            assert stages[stage]["calls"] > 0, stage
        assert stages["check"]["cum_sim_ms"] > 0
        assert len(profile["slowest_queries"]) <= 10
        assert profile["slowest_queries"] == sorted(
            profile["slowest_queries"],
            key=lambda q: -q["response_sim_ms"],
        )
