"""A cache hit takes few locks: ``proxy.cache`` once per lookup.

An exact hit reads the key index without the lock (one atomic dict
read) and takes ``proxy.cache`` once, to touch the entry; a contained
hit takes it for the description probe and for the touch.  Every
``NamedLock`` acquisition is counted by wrapping ``__enter__`` and
``acquire`` on a warm proxy, with no sanitizer installed (the serve
path's own configuration).  Besides the cache a hit takes
``proxy.state`` (its index) and ``proxy.decisions`` (its decision
trace) once each, and ``proxy.clock`` per advance: twice for an exact
hit, four times for a contained one.  The trace's record list is
appended to without a lock.
"""

from collections import Counter

import pytest

from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryStatus
from repro.locking import NamedLock, current_sanitizer
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID

#: The named locks one hit may take, whatever their role.
MAX_LOCKS_PER_HIT = 8


@pytest.fixture()
def counted(monkeypatch):
    """A counter of acquisitions by role while the test runs."""
    counts = Counter()
    enter, acquire = NamedLock.__enter__, NamedLock.acquire

    def counting_enter(self):
        counts[self.name] += 1
        return enter(self)

    def counting_acquire(self, *args, **kwargs):
        counts[self.name] += 1
        return acquire(self, *args, **kwargs)

    monkeypatch.setattr(NamedLock, "__enter__", counting_enter)
    monkeypatch.setattr(NamedLock, "acquire", counting_acquire)
    return counts


def serve_counted(proxy, bound, counts):
    counts.clear()
    status = proxy.serve(bound).record.status
    return status, dict(counts)


def test_an_exact_and_a_contained_hit_take_the_cache_lock_once_per_lookup(
    origin, radial_params, counted
):
    assert current_sanitizer() is None
    proxy = FunctionProxy(origin, origin.templates)
    bind = origin.templates.bind
    wide = bind(RADIAL_TEMPLATE_ID, radial_params)
    narrow = bind(RADIAL_TEMPLATE_ID, dict(radial_params, radius=4.0))
    assert proxy.serve(wide).record.status is QueryStatus.DISJOINT
    # Warm: the first contained hit compiles the local evaluation plan.
    assert proxy.serve(narrow).record.status is QueryStatus.CONTAINED
    narrower = bind(RADIAL_TEMPLATE_ID, dict(radial_params, radius=3.0))

    status, exact = serve_counted(proxy, wide, counted)
    assert status is QueryStatus.EXACT
    assert exact["proxy.cache"] == 1
    assert sum(exact.values()) <= MAX_LOCKS_PER_HIT

    status, contained = serve_counted(proxy, narrower, counted)
    assert status is QueryStatus.CONTAINED
    assert contained["proxy.cache"] <= 2
    assert sum(contained.values()) <= MAX_LOCKS_PER_HIT
