"""Experiment scales: paper-size and laptop-size parameter sets.

The paper's numbers come from an 11,323-query trace against terabytes
of sky data.  Re-running every configuration at that scale is possible
with this code but slow in a test loop, so experiments take a *scale*:

* :meth:`ExperimentScale.paper` — full trace length, dense catalog;
* :meth:`ExperimentScale.default` — a few thousand queries, a catalog
  dense enough for realistic result sizes; what the benchmark suite
  runs;
* :meth:`ExperimentScale.quick` — smoke-test size for unit tests.

All scales share the calibrated cost models, so measured response
times land in the paper's millisecond range at any scale; only the
trace length and catalog density change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.costs import ProxyCostModel
from repro.network.link import NetworkLink, Topology
from repro.server.costs import ServerCostModel
from repro.skydata.generator import SkyCatalogConfig
from repro.workload.generator import RadialTraceConfig

# Calibrated models shared by all scales.  See DESIGN.md section 5 and
# the calibration notes in EXPERIMENTS.md: the origin costs about 1.5 s
# per query, the WAN adds ~0.3 s of latency plus bandwidth-proportional
# transfer, and proxy-side work is tens of milliseconds.
DEFAULT_SERVER_COSTS = ServerCostModel(
    base_ms=1700.0,
    per_tuple_ms=1.0,
    remainder_surcharge_ms=1200.0,
    per_hole_ms=150.0,
)
DEFAULT_PROXY_COSTS = ProxyCostModel(
    parse_ms=2.0,
    check_per_array_entry_ms=0.01,
    check_per_rtree_node_ms=0.25,
    check_per_candidate_ms=0.3,
    read_per_tuple_ms=0.12,
    eval_per_tuple_ms=0.08,
    merge_per_tuple_ms=0.05,
    store_per_kb_ms=0.05,
    array_update_ms=0.05,
    rtree_update_per_node_ms=1.0,
    evict_per_entry_ms=0.2,
)
DEFAULT_TOPOLOGY = Topology(
    client_proxy=NetworkLink(latency_ms=5.0, bandwidth_bytes_per_ms=1000.0),
    proxy_origin=NetworkLink(latency_ms=150.0, bandwidth_bytes_per_ms=250.0),
    request_bytes=600,
)

# The cache-size axis of Table 1 and Figure 5, as fractions of the
# trace's total result size.
CACHE_SIZE_FRACTIONS = (1 / 6, 1 / 3, 1 / 2, 1.0)


@dataclass(frozen=True)
class ObservabilityConfig:
    """Which observability artifacts the harness's proxies produce.

    ``tracing`` turns on a real :class:`~repro.obs.spans.SpanTracer`
    (by default each query's stage tree is dropped when it ends) and
    the runner writes a ``trace-<label>.jsonl`` span export per run.
    ``profiling`` turns on a real :class:`~repro.obs.profiling.Profiler`
    folding the same trees into per-stage aggregates, written as
    ``profile-<label>.json``.  ``timeseries`` / ``events`` install live
    telemetry recorders (:mod:`repro.obs.timeseries` /
    :mod:`repro.obs.events`) on the proxy, producing
    ``timeseries-<label>.json`` (with the embedded health report) and
    ``events-<label>.json``.  Each component keeps its own default
    capacities (256 traces and explain records, the 10 slowest
    queries, 512 one-second samples, 256 events); trace ids come from
    OS entropy.
    """

    tracing: bool = False
    profiling: bool = False
    timeseries: bool = False
    events: bool = False


@dataclass(frozen=True)
class ExperimentScale:
    """One self-consistent experiment parameterization."""

    name: str
    sky: SkyCatalogConfig
    trace: RadialTraceConfig
    measure_queries: int  # Figure 5 measures the first 10,000
    server_costs: ServerCostModel = DEFAULT_SERVER_COSTS
    proxy_costs: ProxyCostModel = DEFAULT_PROXY_COSTS
    topology: Topology = DEFAULT_TOPOLOGY
    cache_fractions: tuple[float, ...] = CACHE_SIZE_FRACTIONS
    obs: ObservabilityConfig = ObservabilityConfig()

    @staticmethod
    def paper() -> "ExperimentScale":
        """Full paper scale: the 11,323-query trace, dense catalog."""
        sky = SkyCatalogConfig(
            n_objects=450_000,
            ra_min=120.0,
            ra_max=173.0,
            dec_min=0.0,
            dec_max=30.0,
        )
        return ExperimentScale(
            name="paper",
            sky=sky,
            trace=RadialTraceConfig(n_queries=11_323, sky=sky),
            measure_queries=10_000,
        )

    @staticmethod
    def default() -> "ExperimentScale":
        """Benchmark scale: same density, shorter trace."""
        sky = SkyCatalogConfig(
            n_objects=120_000,
            ra_min=150.0,
            ra_max=176.0,
            dec_min=5.0,
            dec_max=21.0,
        )
        return ExperimentScale(
            name="default",
            sky=sky,
            trace=RadialTraceConfig(n_queries=3_000, sky=sky),
            measure_queries=2_500,
        )

    @staticmethod
    def quick() -> "ExperimentScale":
        """Smoke-test scale for the unit/integration test suite."""
        sky = SkyCatalogConfig(
            n_objects=20_000,
            ra_min=160.0,
            ra_max=170.0,
            dec_min=5.0,
            dec_max=12.0,
        )
        return ExperimentScale(
            name="quick",
            sky=sky,
            trace=RadialTraceConfig(n_queries=500, sky=sky),
            measure_queries=500,
        )

    @staticmethod
    def named(name: str) -> "ExperimentScale":
        """The preset called ``name``: quick, default, or paper."""
        presets = {
            "quick": ExperimentScale.quick,
            "default": ExperimentScale.default,
            "paper": ExperimentScale.paper,
        }
        if name not in presets:
            raise ValueError(
                f"unknown scale {name!r}; use quick, default, or paper"
            )
        return presets[name]()

    def with_trace_length(self, n_queries: int) -> "ExperimentScale":
        return replace(
            self,
            trace=replace(self.trace, n_queries=n_queries),
            measure_queries=min(self.measure_queries, n_queries),
        )

    def with_observability(
        self, obs: ObservabilityConfig
    ) -> "ExperimentScale":
        return replace(self, obs=obs)
