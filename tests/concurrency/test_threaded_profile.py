"""``/profile`` under threaded serves.

The profiler used to keep one open-frame stack shared by every thread,
so concurrent serves nested their stages under each other's and routed
flat charges onto whichever thread's frame happened to be open.  Stages
now nest on a per-thread stack and the profiler folds each finished
tree under its own lock: the profile of N queries is the same whether
one thread served them or eight.
"""

import random
import sys
import threading

import pytest

from repro.core.proxy import FunctionProxy
from repro.locking import (
    LOCK_ORDER,
    disable_lock_sanitizer,
    enable_lock_sanitizer,
)
from repro.obs import ProxyInstrumentation
from repro.obs.profiling import Profiler
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID

#: Pure sinks: emitters may enter them holding their own role, and
#: nothing is ever acquired under them (DESIGN.md, lock roles).
SINKS = {"proxy.telemetry", "proxy.trace"}


@pytest.fixture()
def sanitizer():
    installed = enable_lock_sanitizer()
    yield installed
    disable_lock_sanitizer()


@pytest.fixture()
def eager_switching():
    """Make the interpreter switch threads every few bytecodes, so
    concurrent serves really interleave inside their stages."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def assert_sinks_stay_sinks(sanitizer):
    observed = sanitizer.observed_edges()
    unpredicted = observed - LOCK_ORDER
    assert all(inner in SINKS for _, inner in unpredicted), unpredicted
    assert not any(outer in SINKS for outer, _ in observed), observed


def test_stages_of_two_threads_do_not_nest_or_share_charges(sanitizer):
    """Thread A holds ``check`` open while thread B runs a whole query
    of its own: a ``local_eval`` phase, then a flat ``check`` charge."""
    obs = ProxyInstrumentation(profiler=Profiler())
    a_is_inside_check = threading.Event()
    b_is_done = threading.Event()
    failures = []

    def thread_a():
        try:
            with obs.observe_query(1, "Radial") as query:
                with query.phase("check") as check:
                    check.charge(1.0)
                    a_is_inside_check.set()
                    assert b_is_done.wait(timeout=10)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    def thread_b():
        try:
            assert a_is_inside_check.wait(timeout=10)
            with obs.observe_query(2, "Radial") as query:
                with query.phase("local_eval") as local_eval:
                    local_eval.charge(10.0)
                query.charge("check", 100.0)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)
        finally:
            b_is_done.set()

    threads = [
        threading.Thread(target=thread_a),
        threading.Thread(target=thread_b),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not failures, failures

    stages = obs.profiler.snapshot()["stages"]
    # A's scope exit and B's flat charge: two calls, 1 + 100 ms.  (The
    # shared stack gave calls 1, cum 111: B's phase nested under A's
    # frame and B's charge landed on it.)
    assert stages["check"]["calls"] == 2
    assert stages["check"]["cum_sim_ms"] == pytest.approx(101.0)
    assert stages["check"]["self_sim_ms"] == pytest.approx(101.0)
    assert stages["local_eval"]["calls"] == 1
    assert stages["local_eval"]["cum_sim_ms"] == pytest.approx(10.0)
    assert_sinks_stay_sinks(sanitizer)


def disjoint_queries(templates, n, seed):
    """``n`` seeded radial queries no two of which touch: every one is
    a miss whatever the serve order, so per-stage calls, origin and
    transfer charges and operator counters are order-independent."""
    rng = random.Random(seed)
    cells = [
        (161.0 + 0.6 * i, 6.0 + 0.6 * j)
        for i in range(10)
        for j in range(7)
    ]
    return [
        templates.bind(
            RADIAL_TEMPLATE_ID,
            {
                "ra": ra,
                "dec": dec,
                "radius": float(rng.choice((3, 5, 8))),
                "r_min": -9999.0,
                "r_max": 9999.0,
            },
        )
        for ra, dec in rng.sample(cells, n)
    ]


def profile_of(origin, queries, workers):
    proxy = FunctionProxy(
        origin,
        origin.templates,
        instrumentation=ProxyInstrumentation(profiler=Profiler()),
    )
    if workers == 1:
        for bound in queries:
            proxy.serve(bound)
    else:
        barrier = threading.Barrier(workers)
        failures = []

        def run(share):
            try:
                barrier.wait(timeout=10)
                for bound in share:
                    proxy.serve(bound)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=run, args=(queries[slot::workers],))
            for slot in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures
    assert all(r.answered for r in proxy.stats.records)
    assert len(proxy.stats.records) == len(queries)
    return proxy.obs.profiler.snapshot()["stages"]


def test_eight_threads_profile_like_one(
    origin, sanitizer, eager_switching
):
    queries = disjoint_queries(origin.templates, 32, seed=339)
    serial = profile_of(origin, queries, workers=1)
    threaded = profile_of(origin, queries, workers=8)

    assert set(threaded) == set(serial)
    for name, row in serial.items():
        assert threaded[name]["calls"] == row["calls"], name
        assert threaded[name].get("counters") == row.get("counters"), name
    # The description check is charged per cached entry it scanned, so
    # its simulated time (and the root's, which contains it) depends on
    # how many admissions came first; every other row does not.
    for name in set(serial) - {"check", "query"}:
        for field in ("self_sim_ms", "cum_sim_ms"):
            assert threaded[name][field] == pytest.approx(
                serial[name][field]
            ), (name, field)
    assert_sinks_stay_sinks(sanitizer)
