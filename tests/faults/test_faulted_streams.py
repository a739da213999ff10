"""Seeded fault schedules replay to the same streams, pinned to disk.

Three scenarios, each a fixed plan over fixed inputs:

* a full-semantic proxy under an origin :class:`FaultPlan` (outage,
  slowdown, transient errors, timeouts and a data-version bump) serving
  40 radial queries: every record plus the final simulated time;
* a 4-shard :class:`ShardRouter` under a :class:`ShardCrashPlan` (one
  crash window, one hang window, one slow window, transient errors):
  every routing decision, record and handoff;
* a truncate and a bitflip :class:`CrashPlan` applied three times to a
  fixed journal from one seeded stream: every damage report.

``golden/faulted_streams.json`` holds what these scenarios produced
when faults were still injected by wrapping the origin and the
topology.  Regenerate it only for an intended change to a fault's
effect, with ``PYTHONPATH=src:. python tests/faults/test_faulted_streams.py``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from random import Random

from repro.cluster import RouterConfig, Shard, ShardRouter
from repro.core.proxy import FunctionProxy
from repro.core.schemes import CachingScheme
from repro.faults.crash import CrashPlan
from repro.faults.plan import FaultPlan, OutageWindow, SlowdownWindow
from repro.faults.shard import ShardCrashPlan, ShardFaultWindow
from repro.persistence import CachePersister
from repro.sched import EventLoop
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID

GOLDEN = Path(__file__).resolve().parent / "golden" / "faulted_streams.json"

ORIGIN_PLAN = FaultPlan(
    seed=21,
    error_rate=0.25,
    timeout_rate=0.15,
    outages=(OutageWindow(40_000.0, 90_000.0),),
    slowdowns=(SlowdownWindow(10_000.0, 30_000.0, factor=3.0),),
    version_bumps=(120_000.0,),
)

SHARD_PLAN = ShardCrashPlan(
    seed=5,
    error_rate=0.2,
    faults=(
        ShardFaultWindow("shard-0", "slow", 0.0, 12_000.0, factor=2.5),
        ShardFaultWindow("shard-2", "hang", 1_500.0, 9_000.0),
        ShardFaultWindow("shard-3", "crash", 14_000.0),
    ),
)


def radial(origin, ra: float, dec: float = 8.0, radius: float = 8.0):
    return origin.templates.bind(
        RADIAL_TEMPLATE_ID,
        {
            "ra": ra,
            "dec": dec,
            "radius": radius,
            "r_min": -9999.0,
            "r_max": 9999.0,
        },
    )


def origin_stream(origin) -> dict:
    proxy = FunctionProxy(
        origin, origin.templates, scheme=CachingScheme.FULL_SEMANTIC
    )
    proxy.install_fault_plan(ORIGIN_PLAN)
    for i in range(40):
        proxy.serve(radial(origin, ra=150.0 + 2.5 * i))
    return {
        "records": [r.to_dict(include_wall=False) for r in proxy.stats.records],
        "now_ms": proxy.clock.now_ms,
    }


def shard_stream(origin, state_dir: Path) -> dict:
    shards = [
        Shard(
            f"shard-{i}",
            FunctionProxy(
                origin,
                origin.templates,
                persistence=CachePersister(
                    state_dir / f"shard-{i}", shard_id=f"shard-{i}"
                ),
            ),
        )
        for i in range(4)
    ]
    tunnel = FunctionProxy(
        origin, origin.templates, scheme=CachingScheme.NO_CACHE
    )
    router = ShardRouter(
        shards,
        fallback=tunnel,
        config=RouterConfig(region_partitions={RADIAL_TEMPLATE_ID: 0.02}),
        crash_plan=SHARD_PLAN,
    )
    # Arrivals exactly 700 ms apart: on the loop the router's time is
    # the arrival time, not advanced by each answer's response time.
    loop = EventLoop()
    router.clock = loop
    records = []

    def arrive(i: int) -> None:
        bound = radial(origin, ra=160.5 + (i % 8), dec=6.0 + (i % 3))
        response, _ = router.serve_routed(bound)
        records.append(response.record.to_dict(include_wall=False))

    for i in range(32):
        loop.at(700.0 * i, lambda i=i: arrive(i))
    loop.run()
    return {
        "decisions": [d.to_dict() for d in router.decisions],
        "records": records,
        "handoffs": [h.to_dict() for h in router.handoffs],
    }


def damage_reports(work_dir: Path) -> dict:
    reports = {}
    for damage in ("truncate", "bitflip"):
        journal = work_dir / f"{damage}.bin"
        journal.write_bytes(bytes(range(256)) * 3)
        # Three crashes in a row, drawn from one seeded stream.
        plan = CrashPlan(seed=13, damage=damage, tail_window_bytes=48)
        rng = Random(13)
        reports[damage] = [
            plan.apply_damage(journal, rng) for _ in range(3)
        ]
    return reports


def faulted_streams(origin, work_dir: Path) -> dict:
    return {
        "origin": origin_stream(origin),
        "shards": shard_stream(origin, work_dir / "shards"),
        "crash": damage_reports(work_dir),
    }


def test_faulted_streams_match_the_golden(origin, tmp_path):
    produced = json.loads(json.dumps(faulted_streams(origin, tmp_path)))
    assert produced == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    from repro.server.origin import OriginServer
    from tests.conftest import SMALL_SKY

    with tempfile.TemporaryDirectory() as scratch:
        streams = faulted_streams(
            OriginServer.skyserver(SMALL_SKY), Path(scratch)
        )
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(streams, indent=1, sort_keys=True) + "\n")
