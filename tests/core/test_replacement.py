"""Replacement policies: unit behaviour and a model-based LRU check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CacheEntry, CacheManager
from repro.core.description import ArrayDescription
from repro.core.replacement import (
    ALL_POLICIES,
    FifoPolicy,
    GreedyDualSizePolicy,
    LargestFirstPolicy,
    LfuPolicy,
    LruPolicy,
)
from repro.geometry.regions import HyperSphere
from repro.relational.result import ResultTable
from repro.relational.schema import Schema


def entry(entry_id, last_used=0, access_count=0, byte_size=100):
    return CacheEntry(
        entry_id=entry_id,
        template_id="t",
        cache_key=("t", entry_id),
        region=HyperSphere((float(entry_id), 0.0), 0.1),
        signature="",
        truncated=False,
        byte_size=byte_size,
        row_count=1,
        result=ResultTable.empty(Schema.of()),
        last_used=last_used,
        access_count=access_count,
    )


class TestVictimSelection:
    def test_lru_picks_least_recently_used(self):
        entries = [entry(1, last_used=5), entry(2, last_used=2),
                   entry(3, last_used=9)]
        policy = LruPolicy()
        for e in entries:
            policy.on_insert(e)
        policy.on_access(entries[0])  # entry 1 was used after entry 3
        policy.on_access(entries[2])
        assert policy.victim(entries).entry_id == 2
        policy.on_evict(entries[1])
        assert policy.victim(entries).entry_id == 1

    def test_fifo_picks_oldest(self):
        entries = [entry(3, last_used=1), entry(1, last_used=9), entry(2)]
        assert FifoPolicy().victim(entries).entry_id == 1

    def test_lfu_picks_least_frequent(self):
        entries = [
            entry(1, access_count=5),
            entry(2, access_count=1, last_used=9),
            entry(3, access_count=1, last_used=2),
        ]
        # Frequency ties broken by recency: entry 3 is older.
        assert LfuPolicy().victim(entries).entry_id == 3

    def test_largest_first_picks_biggest(self):
        entries = [entry(1, byte_size=10), entry(2, byte_size=999),
                   entry(3, byte_size=50)]
        assert LargestFirstPolicy().victim(entries).entry_id == 2

    def test_gds_prefers_evicting_large_unused(self):
        policy = GreedyDualSizePolicy()
        small = entry(1, byte_size=100)
        large = entry(2, byte_size=100_000)
        policy.on_insert(small)
        policy.on_insert(large)
        assert policy.victim([small, large]).entry_id == 2

    def test_gds_access_refreshes_credit(self):
        policy = GreedyDualSizePolicy()
        a = entry(1, byte_size=1000)
        b = entry(2, byte_size=1000)
        policy.on_insert(a)
        policy.on_insert(b)
        # Evict once to raise the inflation level, then re-insert a.
        victim = policy.victim([a, b])
        policy.on_evict(victim)
        survivor = b if victim.entry_id == 1 else a
        refreshed = entry(3, byte_size=1000)
        policy.on_insert(refreshed)
        # The refreshed entry has post-inflation credit; the stale
        # survivor is the next victim.
        assert policy.victim([survivor, refreshed]) is survivor


class TestRationale:
    """Every policy must explain its victim (the explain layer and the
    recovery report both surface these strings verbatim)."""

    MARKERS = {
        "lru": "least recently used",
        "fifo": "oldest entry",
        "lfu": "least frequently used",
        "largest-first": "largest entry",
        "gds": "minimum credit",
    }

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES,
                             ids=lambda c: c.name)
    def test_rationale_names_the_policy_criterion(self, policy_cls):
        policy = policy_cls()
        entries = [
            entry(1, last_used=3, access_count=2, byte_size=100),
            entry(2, last_used=1, access_count=1, byte_size=400),
            entry(3, last_used=7, access_count=5, byte_size=50),
        ]
        for e in entries:
            policy.on_insert(e)
        victim = policy.victim(entries)
        rationale = policy.rationale(victim)
        assert self.MARKERS[policy.name] in rationale

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES,
                             ids=lambda c: c.name)
    def test_rationale_cites_the_victims_own_numbers(self, policy_cls):
        policy = policy_cls()
        victim = entry(4, last_used=11, access_count=6, byte_size=256)
        policy.on_insert(victim)
        rationale = policy.rationale(victim)
        cited = {
            "lru": str(victim.last_used),
            "fifo": str(victim.entry_id),
            "lfu": str(victim.access_count),
            "largest-first": str(victim.byte_size),
            "gds": "inflation",
        }
        assert cited[policy.name] in rationale

    def test_base_class_default_rationale(self):
        from repro.core.replacement import ReplacementPolicy

        class NoOpinionPolicy(ReplacementPolicy):
            name = "no-opinion"

            def victim(self, entries):
                return next(iter(entries))

        assert NoOpinionPolicy().rationale(entry(1)) == (
            "selected by no-opinion"
        )

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES,
                             ids=lambda c: c.name)
    def test_eviction_reports_carry_the_rationale(self, policy_cls):
        """The manager asks for the rationale *before* removal, so
        policies with bookkeeping (GDS credit) can still answer."""
        manager = CacheManager(
            ArrayDescription(), max_bytes=250, policy=policy_cls()
        )

        class _FakeResult:
            def __init__(self, size):
                self._size = size

            def byte_size(self):
                return self._size

            def __len__(self):
                return 1

        class _FakeBound:
            def __init__(self, key):
                self.template_id = "t"
                self._key = key
                self.region = HyperSphere((float(key), 0.0), 0.1)

            def cache_key(self):
                return ("t", self._key)

        _, first_report = manager.store(
            _FakeBound(1), _FakeResult(200), "", False
        )
        assert first_report.evictions == []
        _, report = manager.store(
            _FakeBound(2), _FakeResult(200), "", False
        )
        assert len(report.evictions) == 1
        eviction = report.evictions[0]
        assert eviction.policy == policy_cls.name
        assert self.MARKERS[policy_cls.name] in eviction.rationale


class TestManagerIntegration:
    def _manager(self, policy, budget):
        return CacheManager(
            ArrayDescription(), max_bytes=budget, policy=policy
        )

    def test_fifo_ignores_touch(self, templates, origin, radial_params):
        from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID

        def bind(ra):
            return templates.bind(
                RADIAL_TEMPLATE_ID, dict(radial_params, ra=ra)
            )

        first = bind(163.0)
        result = origin.execute_bound(first).result
        budget = result.byte_size() * 2 + 200
        manager = self._manager(FifoPolicy(), budget)
        entry1, _ = manager.store(
            first, origin.execute_bound(first).result, "s", False
        )
        second = bind(164.5)
        manager.store(second, origin.execute_bound(second).result, "s",
                      False)
        manager.touch(entry1)  # FIFO must NOT protect it
        third = bind(166.0)
        manager.store(third, origin.execute_bound(third).result, "s", False)
        assert manager.exact_match(first) is None
        assert manager.exact_match(second) is not None


@st.composite
def lru_workloads(draw):
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("put"), st.integers(0, 9)),
                st.tuples(st.just("get"), st.integers(0, 9)),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return ops


@given(ops=lru_workloads())
@settings(max_examples=100, deadline=None)
def test_lru_policy_matches_reference_model(ops):
    """Model-based test: LruPolicy's victim, fed through the hooks the
    cache manager calls, always equals the reference (a list
    moved-to-end on use)."""
    policy = LruPolicy()
    live: dict[int, CacheEntry] = {}
    order: list[int] = []  # least recent first
    tick = 0
    next_id = 1
    for action, key in ops:
        tick += 1
        if action == "put":
            if key in live:
                continue
            if len(live) == 4:
                victim = policy.victim(live.values())
                assert victim.entry_id == live[order[0]].entry_id
                policy.on_evict(victim)
                del live[order[0]]
                order.pop(0)
            candidate = entry(next_id, last_used=tick)
            next_id += 1
            live[key] = candidate
            policy.on_insert(candidate)
            order.append(key)
        else:
            if key in live:
                live[key].last_used = tick
                policy.on_access(live[key])
                order.remove(key)
                order.append(key)
    if live:
        assert policy.victim(live.values()).entry_id == (
            live[order[0]].entry_id
        )


@pytest.mark.parametrize("policy_cls", ALL_POLICIES,
                         ids=lambda c: c.name)
def test_all_policies_preserve_proxy_answers(origin, policy_cls):
    """Replacement never affects correctness, only performance."""
    from repro.core.proxy import FunctionProxy
    from repro.workload.generator import (
        RadialTraceConfig,
        generate_radial_trace,
    )
    from tests.conftest import SMALL_SKY

    trace = generate_radial_trace(
        RadialTraceConfig(n_queries=80, sky=SMALL_SKY)
    )
    proxy = FunctionProxy(
        origin,
        origin.templates,
        cache_bytes=8_000,
        replacement_policy=policy_cls(),
    )
    for query in trace:
        bound = origin.templates.bind(query.template_id, query.param_dict())
        got = proxy.serve(bound).result
        want = origin.execute_bound(bound).result
        key = want.schema.position("objID")
        assert {r[key] for r in got.rows} == {r[key] for r in want.rows}
