"""Named locks, guard registrations, and the lock-order sanitizer."""

import ast
import pathlib
import random
import threading

import pytest

from repro.locking import (
    GUARDED,
    LOCK_ORDER,
    READ_ONLY,
    UNSHARED,
    LockOrderError,
    NamedLock,
    current_sanitizer,
    disable_lock_sanitizer,
    enable_lock_sanitizer,
    guarded_by,
    named_lock,
    read_only,
    unshared,
)


@pytest.fixture()
def sanitizer():
    installed = enable_lock_sanitizer()
    yield installed
    disable_lock_sanitizer()


class TestNamedLock:
    def test_constructor_returns_a_named_lock(self):
        lock = named_lock("proxy.test")
        assert isinstance(lock, NamedLock)
        assert lock.name == "proxy.test"
        assert "proxy.test" in repr(lock)

    def test_empty_name_is_rejected(self):
        with pytest.raises(ValueError):
            named_lock("")

    def test_reentrant_in_one_thread(self):
        lock = named_lock("proxy.test")
        with lock:
            with lock:  # an RLock: same thread may re-enter
                pass

    def test_mutual_exclusion_across_threads(self):
        lock = named_lock("proxy.test")
        counter = {"value": 0}

        def bump():
            for _ in range(500):
                with lock:
                    counter["value"] += 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter["value"] == 2000


class TestRegistrationDecorators:
    def test_guards_are_introspectable(self):
        @guarded_by("proxy.test", "entries", "index")
        @unshared("scratch")
        @read_only("config")
        class Sample:
            pass

        guards = Sample.__concurrency_guards__
        assert guards["entries"] == (GUARDED, "proxy.test")
        assert guards["index"] == (GUARDED, "proxy.test")
        assert guards["scratch"] == (UNSHARED, None)
        assert guards["config"] == (READ_ONLY, None)

    def test_subclass_guards_extend_the_base(self):
        @guarded_by("proxy.test", "entries")
        class Base:
            pass

        @unshared("scratch")
        class Child(Base):
            pass

        assert Child.__concurrency_guards__ == {
            "entries": (GUARDED, "proxy.test"),
            "scratch": (UNSHARED, None),
        }
        # The base class registration is untouched.
        assert Base.__concurrency_guards__ == {
            "entries": (GUARDED, "proxy.test")
        }


class TestLockOrderSanitizer:
    def test_disabled_by_default(self):
        assert current_sanitizer() is None

    def test_enable_installs_and_disable_removes(self, sanitizer):
        assert current_sanitizer() is sanitizer
        disable_lock_sanitizer()
        assert current_sanitizer() is None

    def test_records_acquisition_edges(self, sanitizer):
        outer, inner = named_lock("lock.a"), named_lock("lock.b")
        with outer:
            with inner:
                assert sanitizer.held() == ("lock.a", "lock.b")
        assert sanitizer.held() == ()
        assert sanitizer.observed_edges() == {("lock.a", "lock.b")}

    def test_inversion_raises(self, sanitizer):
        a, b = named_lock("lock.a"), named_lock("lock.b")
        with a:
            with b:
                pass
        with pytest.raises(LockOrderError, match="inversion"):
            with b:
                with a:
                    pass

    def test_same_role_reentry_is_not_an_edge(self, sanitizer):
        # Two same-role locks (e.g. two caches in one process) nest
        # without tripping: reentrancy is by role name.
        first, second = named_lock("proxy.cache"), named_lock("proxy.cache")
        with first:
            with second:
                pass
        assert sanitizer.observed_edges() == set()

    def test_declared_edges_trip_without_a_prior_observation(self):
        enable_lock_sanitizer(edges=[("lock.a", "lock.b")])
        try:
            a, b = named_lock("lock.a"), named_lock("lock.b")
            with pytest.raises(LockOrderError):
                with b:
                    with a:
                        pass
        finally:
            disable_lock_sanitizer()

    def test_assert_consistent_with_accepts_a_superset(self, sanitizer):
        a, b = named_lock("lock.a"), named_lock("lock.b")
        with a:
            with b:
                pass
        sanitizer.assert_consistent_with(
            [("lock.a", "lock.b"), ("lock.a", "lock.c")]
        )

    def test_assert_consistent_with_flags_unpredicted_edges(
        self, sanitizer
    ):
        a, b = named_lock("lock.a"), named_lock("lock.b")
        with a:
            with b:
                pass
        with pytest.raises(LockOrderError, match="lock.a"):
            sanitizer.assert_consistent_with([("lock.b", "lock.a")])

    def test_failed_nonblocking_acquire_unwinds_the_stack(
        self, sanitizer
    ):
        lock = named_lock("lock.a")
        grabbed = threading.Event()
        release = threading.Event()

        def hold():
            with lock:
                grabbed.set()
                release.wait(timeout=5)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert grabbed.wait(timeout=5)
            assert lock.acquire(blocking=False) is False
            assert sanitizer.held() == ()
        finally:
            release.set()
            holder.join()

    def test_failed_nonblocking_acquire_retracts_its_edges(
        self, sanitizer
    ):
        """An ordering that was never established (the acquire failed)
        must not survive in the observed set — it would later flag the
        legitimate opposite order as an inversion."""
        a, b = named_lock("lock.a"), named_lock("lock.b")
        grabbed = threading.Event()
        release = threading.Event()

        def hold():
            with b:
                grabbed.set()
                release.wait(timeout=5)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert grabbed.wait(timeout=5)
            with a:
                assert b.acquire(blocking=False) is False
            assert sanitizer.observed_edges() == set()
        finally:
            release.set()
            holder.join()
        # The opposite order is now the first real ordering: no error.
        with b:
            with a:
                pass
        assert sanitizer.observed_edges() == {("lock.b", "lock.a")}

    def test_rejected_acquisition_commits_no_partial_edges(self):
        """Validate-then-commit: when a later edge of the same attempt
        is an inversion, the earlier edges must not have been recorded
        (they would be orderings that never happened)."""
        enable_lock_sanitizer(edges=[("lock.c", "lock.b")])
        try:
            sanitizer = current_sanitizer()
            a, b, c = (
                named_lock("lock.a"),
                named_lock("lock.b"),
                named_lock("lock.c"),
            )
            with pytest.raises(LockOrderError, match="inversion"):
                with a:
                    with b:
                        with c:  # (b, c) inverts the declared (c, b)
                            pass
            observed = sanitizer.observed_edges()
            assert ("lock.a", "lock.c") not in observed
            # Declared edges are checked, not observed: only the one
            # real acquisition is recorded.
            assert observed == {("lock.a", "lock.b")}
        finally:
            disable_lock_sanitizer()


class TestDeclaredOrder:
    def test_lock_order_is_acyclic(self):
        successors = {}
        for outer, inner in LOCK_ORDER:
            successors.setdefault(outer, set()).add(inner)

        def reachable(start):
            seen, stack = set(), [start]
            while stack:
                for nxt in successors.get(stack.pop(), ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return seen

        assert all(role not in reachable(role) for role in successors)

    def test_every_declared_role_is_a_constructed_lock(self):
        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        constructed = {
            node.args[0].value
            for path in src.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "named_lock"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        }
        roles = {role for edge in LOCK_ORDER for role in edge}
        assert roles <= constructed, roles - constructed

    def test_default_sanitizer_refuses_a_declared_inversion(self, sanitizer):
        # No forward acquisition first: the declared order alone trips.
        journal = named_lock("persistence.journal")
        cache = named_lock("proxy.cache")
        with pytest.raises(LockOrderError, match="inversion"):
            with journal:
                with cache:
                    pass
        assert sanitizer.observed_edges() == set()


class TestTwoThreadStress:
    def test_seeded_out_of_order_acquisition_is_caught(self, sanitizer):
        """Two threads take {A, B} in opposite orders; the sanitizer
        must raise in one of them instead of letting the schedule
        decide between silence and deadlock.

        Non-blocking inner acquires keep the test deadlock-free even
        on interleavings where both threads hold their outer lock; the
        sanitizer check runs before the acquire, so inversions are
        still detected.
        """
        a, b = named_lock("stress.a"), named_lock("stress.b")
        errors = []
        barrier = threading.Barrier(2)

        def worker(seed, outer, inner):
            rng = random.Random(seed)
            barrier.wait(timeout=5)
            try:
                for _ in range(50):
                    with outer:
                        for _ in range(rng.randrange(32)):
                            pass  # seeded jitter without sleeping
                        if inner.acquire(blocking=False):
                            inner.release()
            except LockOrderError as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(11, a, b)),
            threading.Thread(target=worker, args=(23, b, a)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(errors) == 1
        assert "inversion" in str(errors[0])
        # Exactly one order survived in the observed-edge set.
        observed = sanitizer.observed_edges()
        assert len(observed) == 1
        assert observed <= {("stress.a", "stress.b"),
                            ("stress.b", "stress.a")}
