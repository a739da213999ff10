"""Fixtures for the sharded-tier tests.

A *tier* is N full-semantic shard proxies (each with its own
persistence directory under ``tmp_path``) behind a
:class:`~repro.cluster.ShardRouter`, plus an optional cache-less
origin-tunnel fallback — the same wiring the shard-availability
harness uses, sized for unit tests.
"""

from __future__ import annotations

import pytest

from repro.admission import AdmissionConfig
from repro.cluster import RouterConfig, Shard, ShardRouter
from repro.core.proxy import FunctionProxy
from repro.core.schemes import CachingScheme
from repro.persistence import CachePersister
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


@pytest.fixture()
def bind(templates, radial_params):
    def run(**overrides):
        return templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, **overrides)
        )

    return run


@pytest.fixture()
def make_tier(tmp_path, origin):
    """Build a router over fresh shard proxies.

    ``persist=False`` skips the per-shard persister (for tests that
    only exercise routing); ``fallback=False`` drops the origin
    tunnel so undispatchable queries shed.
    """

    def build(
        n_shards: int = 3,
        persist: bool = True,
        fallback: bool = True,
        admission: AdmissionConfig | None = None,
        config: RouterConfig | None = None,
        **router_kwargs,
    ) -> ShardRouter:
        shards = []
        for index in range(n_shards):
            shard_id = f"shard-{index}"
            kwargs = {}
            if persist:
                kwargs["persistence"] = CachePersister(
                    tmp_path / shard_id, shard_id=shard_id
                )
            if admission is not None:
                kwargs["admission"] = admission
            shards.append(
                Shard(
                    shard_id,
                    FunctionProxy(origin, origin.templates, **kwargs),
                )
            )
        tunnel = (
            FunctionProxy(
                origin, origin.templates, scheme=CachingScheme.NO_CACHE
            )
            if fallback
            else None
        )
        return ShardRouter(
            shards, fallback=tunnel, config=config, **router_kwargs
        )

    return build
