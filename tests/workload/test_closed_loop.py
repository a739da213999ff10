"""The closed-loop driver: determinism, accounting, multi-tenancy."""

import dataclasses

import pytest

from repro.admission import (
    AdmissionConfig,
    TenantQuota,
)
from repro.core.proxy import FunctionProxy
from repro.harness.config import ExperimentScale
from repro.sched import EventLoop, ProxyFrontend
from repro.workload import ClosedLoopConfig, ClosedLoopDriver
from repro.workload.generator import generate_radial_trace


@pytest.fixture()
def trace():
    scale = ExperimentScale.quick()
    return generate_radial_trace(
        dataclasses.replace(scale.trace, n_queries=60)
    )


def make_driver(origin, trace, config, loop_config):
    proxy = FunctionProxy(
        origin,
        origin.templates,
        admission=config,
    )
    frontend = ProxyFrontend(proxy, EventLoop())
    return ClosedLoopDriver(frontend, trace, loop_config)


class TestClosedLoopDriver:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedLoopConfig(n_clients=0)
        with pytest.raises(ValueError):
            ClosedLoopConfig(queries_per_client=0)
        with pytest.raises(ValueError):
            ClosedLoopConfig(think_time_ms=-1.0)
        with pytest.raises(ValueError):
            ClosedLoopConfig(think_jitter=2.0)
        with pytest.raises(ValueError):
            ClosedLoopConfig(tenants=())

    def test_every_client_query_is_accounted(self, origin, trace):
        config = ClosedLoopConfig(
            n_clients=20, queries_per_client=3, think_time_ms=2_000.0
        )
        driver = make_driver(
            origin,
            trace,
            AdmissionConfig(max_inflight=4, max_queue_depth=8),
            config,
        )
        stats = driver.run()
        expected = config.n_clients * config.queries_per_client
        assert len(stats) == expected
        assert sum(len(c.outcomes) for c in driver._clients) == expected
        counts = driver.outcome_counts()
        assert sum(counts.values()) == expected
        snapshot = driver.frontend.proxy.admission.snapshot()
        assert snapshot["submitted"] == expected
        assert snapshot["inflight"] == 0
        assert snapshot["queue_depth"] == 0

    def test_same_seed_same_run(self, origin, trace):
        def signature():
            driver = make_driver(
                origin,
                trace,
                AdmissionConfig(max_inflight=2, max_queue_depth=4),
                ClosedLoopConfig(
                    n_clients=16, queries_per_client=2, seed=7
                ),
            )
            stats = driver.run()
            return [
                (r.index, r.status.value, r.outcome.value,
                 round(r.response_ms, 6))
                for r in stats.records
            ]

        assert signature() == signature()

    def test_different_seed_changes_think_pacing(self, origin, trace):
        def final_time(seed):
            driver = make_driver(
                origin,
                trace,
                AdmissionConfig(max_inflight=2, max_queue_depth=4),
                ClosedLoopConfig(
                    n_clients=8, queries_per_client=3, seed=seed
                ),
            )
            driver.run()
            return driver.loop.now_ms

        assert final_time(1) != final_time(2)

    def test_tenants_assigned_round_robin(self, origin, trace):
        config = AdmissionConfig(
            max_inflight=4,
            max_queue_depth=8,
            quotas={"metered": TenantQuota(rate_per_s=0.001, burst=1.0)},
        )
        driver = make_driver(
            origin,
            trace,
            config,
            ClosedLoopConfig(
                n_clients=8,
                queries_per_client=2,
                tenants=("metered", "open"),
            ),
        )
        driver.run()
        snapshot = driver.frontend.proxy.admission.snapshot()
        # Four metered clients, one burst token: quota sheds happened
        # and only for the metered tenant.
        assert snapshot["quota_denials"].keys() == {"metered"}
        assert snapshot["quota_denials"]["metered"] >= 1

    def test_until_ms_bounds_the_horizon(self, origin, trace):
        driver = make_driver(
            origin,
            trace,
            AdmissionConfig(max_inflight=2, max_queue_depth=4),
            ClosedLoopConfig(
                n_clients=10,
                queries_per_client=50,
                think_time_ms=1_000.0,
            ),
        )
        driver.run(until_ms=5_000.0)
        assert driver.loop.now_ms <= 5_000.0
        total = 10 * 50
        assert sum(len(c.outcomes) for c in driver._clients) < total
