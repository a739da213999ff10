"""The sharded proxy tier: ring, router, warm handoff, event frontend.

This package is the tier's *only* public surface: nothing outside it
imports ``repro.cluster.<module>`` internals, so shard-to-shard
movement always goes through the router and handoff machinery
re-exported here.
"""

from repro.cluster.frontend import ClusterFrontend
from repro.cluster.handoff import (
    HandoffReport,
    encode_handoff,
    export_records,
    persisted_records,
    replay_records,
)
from repro.cluster.ring import HashRing, ring_hash
from repro.cluster.router import (
    REASON_SHARD_DOWN,
    RouteAttempt,
    RouteDecision,
    RouterConfig,
    Shard,
    ShardRouter,
)

__all__ = [
    "ClusterFrontend",
    "HandoffReport",
    "HashRing",
    "REASON_SHARD_DOWN",
    "RouteAttempt",
    "RouteDecision",
    "RouterConfig",
    "Shard",
    "ShardRouter",
    "encode_handoff",
    "export_records",
    "persisted_records",
    "replay_records",
    "ring_hash",
]
