"""Fixtures for the persistence tests.

The *rig* is a cache wired to a persister exactly the way
:class:`~repro.core.proxy.FunctionProxy` wires them (mutation-log
hook, simulated clock, mutable data version), minus the proxy itself —
so journal/snapshot/recovery behaviour can be driven one mutation at a
time.
"""

from __future__ import annotations

import pytest

from repro.core.cache import CacheManager
from repro.core.description import ArrayDescription
from repro.network.clock import SimulatedClock
from repro.persistence import CachePersister
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


class PersistenceRig:
    """A cache + persister pair over one persistence directory."""

    def __init__(
        self,
        directory,
        origin,
        templates,
        snapshot_every: int = 1_000,
        max_bytes: int | None = None,
        policy=None,
        recovered: bool = False,
        shard_id: str | None = None,
    ) -> None:
        self.origin = origin
        self.templates = templates
        self.clock = SimulatedClock()
        self.data_version = 1
        self.persister = CachePersister(
            directory,
            snapshot_every=snapshot_every,
            shard_id=shard_id,
        )
        self.cache = CacheManager(
            ArrayDescription(), max_bytes=max_bytes, policy=policy
        )
        self.persister.bind(
            self.cache,
            self.clock,
            version_of=lambda: self.data_version,
            admitted_under=lambda: self.data_version,
        )
        self.cache.mutation_log = self.persister
        self.recovery_report = None
        if recovered:
            from repro.persistence import recover_cache

            self.recovery_report = recover_cache(
                self.persister, self.cache, self.templates
            )

    def admit(self, bound, signature: str = "", truncated: bool = False):
        """Run one query at the origin and store its result."""
        result = self.origin.execute_bound(bound).result
        return self.cache.store(bound, result, signature, truncated)


@pytest.fixture()
def bind_radial(templates, radial_params):
    def run(**overrides):
        return templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, **overrides)
        )

    return run


@pytest.fixture()
def make_rig(tmp_path, origin, templates):
    """Build rigs over (by default) one shared persistence directory,
    so a second rig models a process restart over the first one's
    files."""

    def build(directory=None, **kwargs) -> PersistenceRig:
        return PersistenceRig(
            directory if directory is not None else tmp_path,
            origin,
            templates,
            **kwargs,
        )

    return build
