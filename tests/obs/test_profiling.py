"""The hierarchical hot-path profiler.

The profiler folds finished stage trees, so every accounting rule is
checked through the one scope: stages opened on a ``ScopeStack`` whose
only reader is the profiler, timed on a hand-advanced fake clock — self
vs cumulative time on both clocks, re-entrant stages, where a charge
lands, the top-K slowest-query capture, and the disabled default's
guarantees (empty snapshot, bounded overhead).
"""

import pytest

from repro.obs import ProxyInstrumentation
from repro.obs.profiling import (
    NULL_PROFILER,
    NullProfiler,
    Profiler,
    STAGE_NAMES,
)
from repro.obs.spans import ScopeStack
from repro.obs.wallclock import Stopwatch


class FakeClock:
    """A perf_counter stand-in advanced by hand (seconds)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance_ms(self, ms):
        self.now += ms / 1000.0


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def profiler(clock):
    return Profiler(top_k=3, clock=clock)


@pytest.fixture()
def stack(profiler):
    """Stages here are timed on the profiler's clock (tracing is off)
    and folded into it when their root closes."""
    return ScopeStack(profiler=profiler)


class TestHierarchy:
    def test_self_vs_cumulative_on_both_clocks(self, stack, profiler, clock):
        with stack.scope("check") as check:
            clock.advance_ms(10)
            check.sim_ms += 5.0
            with stack.scope("probe.array", hidden=True) as probe:
                clock.advance_ms(2)
                probe.sim_ms += 1.0
            clock.advance_ms(3)

        check_stats = profiler.stats("check")
        assert check_stats.calls == 1
        assert check_stats.cum_sim_ms == pytest.approx(6.0)
        assert check_stats.self_sim_ms == pytest.approx(5.0)
        assert check_stats.cum_wall_ms == pytest.approx(15.0)
        assert check_stats.self_wall_ms == pytest.approx(13.0)

        probe_stats = profiler.stats("probe.array")
        assert probe_stats.calls == 1
        assert probe_stats.cum_sim_ms == pytest.approx(1.0)
        assert probe_stats.self_sim_ms == pytest.approx(1.0)
        assert probe_stats.cum_wall_ms == pytest.approx(2.0)
        assert probe_stats.self_wall_ms == pytest.approx(2.0)

    def test_nothing_is_folded_before_the_root_closes(self, stack, profiler):
        with stack.scope("query"):
            with stack.scope("check"):
                pass
            assert profiler.stats("check") is None
        assert profiler.stats("check").calls == 1

    def test_reentrant_stage_counts_cumulative_once(
        self, stack, profiler, clock
    ):
        with stack.scope("merge") as outer:
            clock.advance_ms(4)
            outer.sim_ms += 4.0
            with stack.scope("merge") as inner:
                clock.advance_ms(2)
                inner.sim_ms += 2.0

        stats = profiler.stats("merge")
        # One call per entry, but cumulative time only at the
        # outermost stage — recursion cannot double-count.
        assert stats.calls == 2
        assert stats.cum_wall_ms == pytest.approx(6.0)
        assert stats.cum_sim_ms == pytest.approx(6.0)
        assert stats.self_wall_ms == pytest.approx(6.0)
        assert stats.self_sim_ms == pytest.approx(6.0)

    def test_zero_duration_stage(self, stack, profiler):
        with stack.scope("parse"):
            pass
        stats = profiler.stats("parse")
        assert stats.calls == 1
        assert stats.cum_wall_ms == 0.0
        assert stats.self_wall_ms == 0.0
        assert stats.cum_sim_ms == 0.0

    def test_out_of_order_exit_unwinds(self, stack, profiler, clock):
        outer = stack.scope("check")
        inner = stack.scope("relate")
        outer.__enter__()
        inner.__enter__()
        clock.advance_ms(1)
        # Exiting the outer stage with the inner still open must not
        # leave a corpse on the stack.
        outer.__exit__(None, None, None)
        assert profiler.stats("check").calls == 1
        with stack.scope("local_eval") as later:
            clock.advance_ms(1)
        assert profiler.stats("local_eval").calls == 1
        # It closed as a root, not as a child of the abandoned stage.
        assert later not in inner.children
        # The abandoned stage closing late is a root of its own.
        inner.__exit__(None, None, None)
        assert profiler.stats("relate").calls == 1
        assert stack.current_traceparent() is None


class TestAccumulation:
    def test_accumulate_routes_to_open_frame(self, stack, profiler):
        with stack.scope("origin") as origin:
            origin.sim_ms += 1.0
            with stack.scope("attempt"):
                # Lands on the innermost open stage of that name,
                # which need not be the direct parent.
                stack.event("origin", sim_ms=2.5)
        stats = profiler.stats("origin")
        # The charge landed on the open stage: one call, not two.
        assert stats.calls == 1
        assert stats.self_sim_ms == pytest.approx(3.5)
        assert stats.cum_sim_ms == pytest.approx(3.5)
        assert profiler.stats("attempt").cum_sim_ms == 0.0

    def test_accumulate_flat_when_no_frame_open(self, stack, profiler):
        with stack.scope("origin") as origin:
            origin.sim_ms += 10.0
            stack.event("transfer", sim_ms=1.5)
        stack.event("transfer", sim_ms=0.5)  # a root of its own
        stats = profiler.stats("transfer")
        assert stats.calls == 2
        assert stats.cum_sim_ms == pytest.approx(2.0)
        assert stats.self_sim_ms == pytest.approx(2.0)
        # A flat charge is nobody's child time.
        assert profiler.stats("origin").cum_sim_ms == pytest.approx(10.0)

    def test_query_charges_reach_the_profile(self, clock):
        obs = ProxyInstrumentation(profiler=Profiler(clock=clock))
        with obs.observe_query(1, "Radial") as query:
            query.charge("parse", 2.0)
            with query.phase("origin") as origin:
                query.charge("origin", 100.0)  # the gateway's timeout
                query.charge("backoff", 7.0)
                origin.charge(30.0)
        snapshot = obs.profiler.snapshot()["stages"]
        assert snapshot["origin"]["calls"] == 1
        assert snapshot["origin"]["self_sim_ms"] == pytest.approx(130.0)
        assert snapshot["parse"]["calls"] == 1
        assert snapshot["backoff"]["cum_sim_ms"] == pytest.approx(7.0)
        assert snapshot["query"]["calls"] == 1
        assert query.steps == {
            "parse": 2.0, "origin": 130.0, "backoff": 7.0,
        }

    def test_hit_and_count(self, profiler):
        profiler.hit("journal.append")
        profiler.hit("journal.append", 2)
        profiler.count("local_eval", "tuples_read", 40)
        profiler.count("local_eval", "tuples_read", 2)
        assert profiler.stats("journal.append").calls == 3
        assert profiler.stats("local_eval").counters == {
            "tuples_read": 42
        }

    def test_frame_count_delegates(self, stack, profiler):
        for tuples in (7, 5):
            with stack.scope("merge") as merge:
                merge.count("tuples", tuples)
                merge.count("batches")
        assert profiler.stats("merge").counters == {
            "tuples": 12, "batches": 2,
        }


class TestSlowestQueries:
    def test_top_k_keeps_slowest_in_order(self, profiler):
        for index, sim_ms in enumerate([10.0, 30.0, 20.0, 25.0]):
            profiler.record_query(index, "Radial", sim_ms)
        snapshot = profiler.snapshot()
        assert [
            q["response_sim_ms"] for q in snapshot["slowest_queries"]
        ] == [30.0, 25.0, 20.0]

    def test_status_is_optional(self, profiler):
        profiler.record_query(0, "Radial", 5.0, status="miss")
        profiler.record_query(1, "Radial", 4.0)
        first, second = profiler.snapshot()["slowest_queries"]
        assert first["status"] == "miss"
        assert "status" not in second


class TestExport:
    def test_snapshot_shape(self, stack, profiler, clock):
        with stack.scope("check") as check:
            clock.advance_ms(1)
            check.count("candidates", 3)
        snapshot = profiler.snapshot()
        assert snapshot["enabled"] is True
        assert snapshot["top_k"] == 3
        assert snapshot["stages"]["check"]["calls"] == 1
        assert snapshot["stages"]["check"]["counters"] == {
            "candidates": 3
        }

    @pytest.mark.parametrize("sort", ["cum", "self", "wall", "calls"])
    def test_render_text_sorts(self, profiler, sort):
        profiler.add_sim("parse", 1.0)
        text = profiler.render_text(sort=sort)
        assert f"sorted by {sort}" in text
        assert "parse" in text

    def test_render_text_rejects_unknown_sort(self, profiler):
        with pytest.raises(ValueError, match="unknown sort"):
            profiler.render_text(sort="rows")

    def test_top_k_must_be_positive(self):
        with pytest.raises(ValueError):
            Profiler(top_k=0)

    def test_hot_path_stage_names_are_registered(self):
        for name in ("check", "local_eval", "merge", "probe.array",
                     "probe.rtree", "remainder_build"):
            assert name in STAGE_NAMES


class TestNullProfiler:
    def test_everything_is_a_no_op(self):
        null = NullProfiler()
        stack = ScopeStack(profiler=null)
        with stack.scope("check") as check:
            check.sim_ms += 5.0
            check.count("candidates", 3)
            stack.event("parse", sim_ms=1.0)
        assert null.snapshot() == {
            "enabled": False,
            "top_k": 0,
            "stages": {},
            "slowest_queries": [],
        }
        assert "disabled" in null.render_text()

    def test_count_only_rows_are_not_written_when_disabled(self):
        # The hooks behind the count-only rows check ``enabled``: the
        # disabled profiler has no write half to call.
        obs = ProxyInstrumentation()
        assert obs.profiler is NULL_PROFILER
        obs.cache_event("insert", 10, 10, 1)
        obs.journal_append("admit")
        obs.journal_replayed("admit")
        assert obs.profiler.snapshot()["stages"] == {}

    def test_noop_overhead_is_bounded(self):
        # The default bundle must stay cheap on the hot path: with no
        # reader on, 10k query-shaped stage sequences (a root, a phase
        # with a sub-stage, two charges) build and drop their trees in
        # well under a second even on a slow CI machine (the real
        # bound is wallbench's telemetry budget).
        obs = ProxyInstrumentation()
        assert obs.profiler is NULL_PROFILER
        watch = Stopwatch()
        for index in range(10_000):
            with obs.observe_query(index, "Radial") as query:
                query.charge("parse", 1.0)
                with query.phase("check") as check:
                    with query.stage("probe.array", hidden=True):
                        pass
                    check.charge(1.0)
                query.charge("read", 1.0)
        assert watch.elapsed_s < 1.0
