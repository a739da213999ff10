"""Cache manager: budget, LRU, description synchronization."""

import pytest

from repro.core.cache import CacheError, CacheManager
from repro.core.description import ArrayDescription
from repro.obs.instrument import ProxyInstrumentation
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


@pytest.fixture()
def bind(templates, radial_params):
    def make(radius=10.0, ra=164.0):
        params = dict(radial_params, radius=radius, ra=ra)
        return templates.bind(RADIAL_TEMPLATE_ID, params)

    return make


@pytest.fixture()
def result_of(origin):
    def run(bound):
        return origin.execute_bound(bound).result

    return run


def make_cache(max_bytes=None):
    return CacheManager(ArrayDescription(), max_bytes=max_bytes)


class TestStore:
    def test_store_and_exact_match(self, bind, result_of):
        cache = make_cache()
        bound = bind()
        entry, report = cache.store(bound, result_of(bound), "sig", False)
        assert entry is not None
        assert report.stored_bytes == entry.byte_size
        assert cache.exact_match(bound) is entry
        assert cache.current_bytes == entry.byte_size

    def test_miss_for_different_params(self, bind, result_of):
        cache = make_cache()
        bound = bind()
        cache.store(bound, result_of(bound), "sig", False)
        assert cache.exact_match(bind(radius=11.0)) is None

    def test_replacing_same_key_keeps_one_entry(self, bind, result_of):
        cache = make_cache()
        bound = bind()
        result = result_of(bound)
        cache.store(bound, result, "sig", False)
        cache.store(bound, result, "sig", False)
        assert len(cache) == 1
        assert cache.current_bytes == result.byte_size()

    def test_oversized_result_is_not_cached(self, bind, result_of):
        cache = make_cache(max_bytes=10)
        bound = bind()
        entry, _report = cache.store(bound, result_of(bound), "sig", False)
        assert entry is None
        assert len(cache) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(CacheError):
            make_cache(max_bytes=-1)


class TestOccupancyGauges:
    """``cache_event`` alone sets ``proxy_cache_bytes`` and
    ``proxy_cache_entries``, so every path that changes the cache
    notifies it."""

    def test_replace_then_reject_moves_the_gauges(self, bind, result_of):
        obs = ProxyInstrumentation()
        kept, replaced = bind(radius=2.0), bind(radius=3.0)
        small = result_of(kept)
        budget = small.byte_size() + result_of(replaced).byte_size()
        cache = CacheManager(ArrayDescription(), max_bytes=budget, observer=obs)
        cache.store(kept, small, "sig", False)
        cache.store(replaced, result_of(replaced), "sig", False)
        big = result_of(bind(radius=30.0))
        assert big.byte_size() > budget
        # The identical query's entry gives way; its new result is refused.
        entry, _report = cache.store(replaced, big, "sig", False)
        assert entry is None
        assert len(cache) == 1 and cache.current_bytes == small.byte_size()
        assert obs.cache_bytes.value == cache.current_bytes
        assert obs.cache_entries.value == len(cache)
        # A gauge-only event: no counter moved.
        assert obs.cache_insertions.value == 2
        assert obs.cache_evictions.value == 0
        assert obs.cache_removals.value == 0


class TestLru:
    def test_eviction_order_is_least_recently_used(self, bind, result_of):
        first = bind(ra=163.0)
        second = bind(ra=164.0)
        third = bind(ra=165.0)
        size = result_of(first).byte_size()
        budget = result_of(first).byte_size() + result_of(
            second
        ).byte_size() + result_of(third).byte_size() // 2
        cache = make_cache(max_bytes=budget)

        entry1, _ = cache.store(first, result_of(first), "sig", False)
        cache.store(second, result_of(second), "sig", False)
        cache.touch(entry1)  # first is now most recently used
        cache.store(third, result_of(third), "sig", False)

        assert cache.exact_match(first) is not None
        assert cache.exact_match(second) is None  # evicted
        assert cache.exact_match(third) is not None
        assert cache.evictions >= 1
        assert cache.current_bytes <= budget
        assert size > 0

    def test_remove_updates_bytes_and_lookup(self, bind, result_of):
        cache = make_cache()
        bound = bind()
        entry, _ = cache.store(bound, result_of(bound), "sig", False)
        cache.remove(entry)
        assert cache.exact_match(bound) is None
        assert cache.current_bytes == 0

    def test_unknown_entry_lookup_raises(self, bind, result_of):
        cache = make_cache()
        with pytest.raises(CacheError):
            cache.entry(999)

    def test_remove_is_idempotent(self, bind, result_of):
        """Regression: consolidation may remove an entry that eviction
        already dropped while making room for the merged result."""
        cache = make_cache()
        bound = bind()
        entry, _ = cache.store(bound, result_of(bound), "sig", False)
        cache.remove(entry)
        report = cache.remove(entry)  # second removal must be a no-op
        assert report.description_work == 0.0
        assert cache.current_bytes == 0


class TestRaceHardening:
    """Lookup-vs-eviction races (REVIEW: lock-free lookups could see a
    concurrent ``_remove`` mid-flight)."""

    def test_exact_match_pinned_returns_entry_with_result(
        self, bind, result_of
    ):
        cache = make_cache()
        bound = bind()
        result = result_of(bound)
        entry, _ = cache.store(bound, result, "sig", False)
        pinned = cache.exact_match_pinned(bound)
        assert pinned is not None
        pinned_entry, pinned_result = pinned
        assert pinned_entry is entry
        assert pinned_result.rows == result.rows

    def test_exact_match_pinned_miss_is_none(self, bind):
        assert make_cache().exact_match_pinned(bind()) is None

    def test_touch_after_removal_is_a_noop(self, bind, result_of):
        """A candidate handed out before a concurrent eviction must not
        resurrect replacement-policy bookkeeping when touched."""
        cache = make_cache()
        bound = bind()
        entry, _ = cache.store(bound, result_of(bound), "sig", False)
        cache.remove(entry)
        before = (entry.last_used, entry.access_count)
        cache.touch(entry)
        assert (entry.last_used, entry.access_count) == before


class TestDescriptionSync:
    def test_description_tracks_store_and_evict(self, bind, result_of):
        cache = make_cache()
        a = bind(ra=163.0)
        b = bind(ra=165.0)
        cache.store(a, result_of(a), "sig", False)
        cache.store(b, result_of(b), "sig", False)
        candidates, _ = cache.description.candidates(
            RADIAL_TEMPLATE_ID, a.region
        )
        assert any(e.cache_key == a.cache_key() for e in candidates)

        entry = cache.exact_match(a)
        cache.remove(entry)
        candidates, _ = cache.description.candidates(
            RADIAL_TEMPLATE_ID, a.region
        )
        assert not any(e.cache_key == a.cache_key() for e in candidates)
