"""The correctness invariant as a state machine: the proxy never
changes an answer it calls ``served``.

A hypothesis :class:`RuleBasedStateMachine` drives one journaling
proxy, under a byte budget that evicts, over a private origin with the
triangle extension registered.  Its rules interleave random Radial,
Rectangular, Triangle and Nearest (TOP 1) queries with data-version
bumps, fault-plan windows (outage, transient errors, slowdown) put in
and taken out, simulated time passing, and crashes that tear the
journal tail before a warm restart.  Each run fixes one caching scheme
and one description (array or R-tree); the parametrization covers
every pair.

The invariant, checked on every serve:

* ``serve()`` never raises;
* a ``served`` answer equals the origin's free-SQL answer to the bound
  statement's text (``origin.execute_sql``, which plans it afresh —
  not the template plan every forward and remainder ran) as full
  tuples, the function's own distance column included — in order when the
  query has ORDER BY or TOP, as a bag otherwise (a cached answer may
  keep another call's row order);
* anything else says so: ``degraded``, ``partial`` or ``failed``.

An answer must be *equivalent* to the origin's, not merely contained
in it.  Shard crashes, handoff and drain are covered by
``test_replay_paths.py`` and the router tests.
"""

import collections
import functools
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    multiple,
    rule,
    run_state_machine_as_test,
)

from repro.core.description import ArrayDescription, RTreeDescription
from repro.core.proxy import FunctionProxy
from repro.core.schemes import CachingScheme
from repro.core.stats import QueryOutcome
from repro.extensions.triangle import (
    TRIANGLE_TEMPLATE_ID,
    register_triangle_search,
)
from repro.faults import CrashPlan, FaultPlan, OutageWindow, SlowdownWindow
from repro.persistence import CachePersister
from repro.server.origin import OriginServer
from repro.skydata.generator import SkyCatalogConfig
from repro.templates.skyserver_templates import (
    NEAREST_TEMPLATE_ID,
    RADIAL_TEMPLATE_ID,
    RECT_TEMPLATE_ID,
)

TINY_SKY = SkyCatalogConfig(
    n_objects=2_000,
    ra_min=160.0,
    ra_max=168.0,
    dec_min=5.0,
    dec_max=11.0,
    seed=7,
)
MAGS = {"r_min": -9999.0, "r_max": 9999.0}
DESCRIPTIONS = {"array": ArrayDescription, "rtree": RTreeDescription}
NOT_SERVED = {QueryOutcome.DEGRADED, QueryOutcome.PARTIAL, QueryOutcome.FAILED}


@functools.lru_cache(maxsize=1)
def private_origin():
    """Own origin: the machine bumps its data version."""
    origin = OriginServer.skyserver(TINY_SKY)
    register_triangle_search(
        origin.catalog.functions,
        origin.catalog.table("PhotoPrimary"),
        origin.templates,
    )
    return origin


# A coarse grid of centres and sizes, so queries repeat, nest and
# overlap often enough to reach every cache case.
ras = st.integers(0, 8).map(lambda i: round(163.0 + 0.2 * i, 3))
decs = st.integers(0, 8).map(lambda j: round(7.0 + 0.2 * j, 3))
radii = st.sampled_from([5.0, 10.0, 20.0, 30.0])
sizes = st.sampled_from([0.1, 0.2, 0.4, 0.8])


@st.composite
def queries(draw):
    """``(template_id, params)`` for one of the four templates."""
    template = draw(
        st.sampled_from(
            [
                RADIAL_TEMPLATE_ID,
                RECT_TEMPLATE_ID,
                TRIANGLE_TEMPLATE_ID,
                NEAREST_TEMPLATE_ID,
            ]
        )
    )
    ra, dec = draw(ras), draw(decs)
    if template in (RADIAL_TEMPLATE_ID, NEAREST_TEMPLATE_ID):
        params = {"ra": ra, "dec": dec, "radius": draw(radii)}
    elif template == RECT_TEMPLATE_ID:
        width, height = draw(sizes), draw(sizes)
        params = {
            "ra_min": ra,
            "ra_max": round(ra + width, 3),
            "dec_min": dec,
            "dec_max": round(dec + height, 3),
        }
    else:
        size = draw(sizes)
        params = {
            "ra1": round(ra - size, 3), "dec1": round(dec - size, 3),
            "ra2": round(ra + size, 3), "dec2": round(dec - size, 3),
            "ra3": ra, "dec3": round(dec + size, 3),
        }
    return template, {**params, **MAGS}


def shrunk(query, zoom):
    """``query`` scaled by ``zoom`` about a point inside it: the same
    query at 1.0, one its region contains below."""
    template, params = query
    params = dict(params)
    if "radius" in params:
        params["radius"] *= zoom
    elif "ra_min" in params:
        for axis in ("ra", "dec"):
            low, high = params[f"{axis}_min"], params[f"{axis}_max"]
            params[f"{axis}_max"] = round(low + (high - low) * zoom, 3)
    else:
        for vertex in ("2", "3"):
            for axis in ("ra", "dec"):
                anchor, point = params[f"{axis}1"], params[axis + vertex]
                params[axis + vertex] = round(
                    anchor + (point - anchor) * zoom, 3
                )
    return template, params


def rows(table):
    return [tuple(row) for row in table.rows]


class ProxyOracle(RuleBasedStateMachine):
    """One proxy, one scheme, one description; the origin is the model."""

    def __init__(self, scheme, description):
        super().__init__()
        self.origin = private_origin()
        self.scheme = scheme
        self.description = description
        self.directory = tempfile.mkdtemp(prefix="oracle-")
        self.proxy = None

    def build(self):
        return FunctionProxy(
            self.origin,
            self.origin.templates,
            scheme=self.scheme,
            description=DESCRIPTIONS[self.description](),
            cache_bytes=self.budget,
            persistence=CachePersister(self.directory, snapshot_every=5),
        )

    @initialize(budget=st.sampled_from([8_000, 16_000]))
    def start(self, budget):
        self.budget = budget
        self.proxy = self.build()

    served = Bundle("served")

    @rule(target=served, batch=st.lists(queries(), min_size=1, max_size=6))
    def serve(self, batch):
        for query in batch:
            self.check(query)
        return multiple(*batch)

    @rule(
        again=st.lists(
            st.tuples(served, st.sampled_from([1.0, 0.5])),
            min_size=1,
            max_size=4,
        )
    )
    def serve_again(self, again):
        """Exact repeats, or queries a cached one contains."""
        for query, zoom in again:
            self.check(shrunk(query, zoom))

    def check(self, query):
        template_id, params = query
        bound = self.origin.templates.bind(template_id, params)
        response = self.proxy.serve(bound)
        outcome = response.record.outcome
        if outcome is not QueryOutcome.SERVED:
            assert outcome in NOT_SERVED, outcome
            return
        # The free-SQL path over the bound statement's text, not the
        # template's plan: a plan bug cannot agree with itself.
        statement = bound.statement
        expected = self.origin.execute_sql(statement.to_sql()).result
        got, want = rows(response.result), rows(expected)
        if not (statement.order_by or statement.top is not None):
            got, want = collections.Counter(got), collections.Counter(want)
        assert got == want, (
            f"{response.record.status.value} answer for {bound!r} "
            "differs from the origin's"
        )

    @rule()
    def bump_data_version(self):
        self.origin.bump_data_version()

    @rule(
        kind=st.sampled_from([None, "outage", "errors", "slow"]),
        length_ms=st.sampled_from([500.0, 5_000.0, 60_000.0]),
        seed=st.integers(0, 1_000),
    )
    def set_fault_window(self, kind, length_ms, seed):
        """Install a fault plan from now on, or (``None``) remove it."""
        now = self.proxy.clock.now_ms
        plan = None
        if kind == "outage":
            plan = FaultPlan(outages=(OutageWindow(now, now + length_ms),))
        elif kind == "errors":
            plan = FaultPlan(seed=seed, error_rate=0.4, timeout_rate=0.2)
        elif kind == "slow":
            plan = FaultPlan(
                slowdowns=(SlowdownWindow(now, now + length_ms, 3.0),)
            )
        self.proxy.install_fault_plan(plan)

    @rule(ms=st.sampled_from([1_000.0, 10_000.0, 40_000.0]))
    def let_time_pass(self, ms):
        # Outage windows close and the breaker's cooldown elapses.
        self.proxy.clock.advance(ms)

    @rule(
        damage=st.sampled_from(["truncate", "bitflip"]),
        seed=st.integers(0, 1_000),
    )
    def crash_and_restart(self, damage, seed):
        session = CrashPlan(seed=seed, damage=damage).session()
        session.apply_damage(self.proxy.persistence.journal.path)
        self.proxy = self.build()
        assert self.proxy.recovery_report is not None

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)


@pytest.mark.parametrize("description", sorted(DESCRIPTIONS))
@pytest.mark.parametrize(
    "scheme", list(CachingScheme), ids=lambda scheme: scheme.value
)
def test_served_answers_equal_the_origins(scheme, description):
    run_state_machine_as_test(
        lambda: ProxyOracle(scheme, description),
        settings=settings(
            max_examples=10,
            stateful_step_count=40,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
