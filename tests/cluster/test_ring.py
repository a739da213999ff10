"""The consistent-hash ring: stability, balance, failover chains."""

from __future__ import annotations

import pytest

from repro.cluster import HashRing, ring_hash


class TestRingHash:
    def test_stable_across_calls(self):
        assert ring_hash("skyserver.radial") == ring_hash("skyserver.radial")

    def test_pinned_value(self):
        """MD5-based positions are process-independent; pin one so an
        accidental hash swap (e.g. to salted ``hash()``) fails loudly."""
        assert ring_hash("shard-0#0") == 0x42FA7B14711F95AD


class TestConstruction:
    def test_needs_nodes(self):
        with pytest.raises(ValueError, match="at least one node"):
            HashRing([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            HashRing(["a", "b", "a"])

    def test_nodes_sorted(self):
        assert HashRing(["c", "a", "b"]).nodes == ("a", "b", "c")


class TestPreference:
    def test_every_node_exactly_once(self):
        ring = HashRing([f"shard-{i}" for i in range(5)])
        order = ring.preference("some-key")
        assert sorted(order) == sorted(ring.nodes)

    def test_primary_is_first(self):
        ring = HashRing(["a", "b", "c"])
        assert ring.primary("k") == ring.preference("k")[0]

    def test_deterministic(self):
        nodes = [f"shard-{i}" for i in range(4)]
        first = HashRing(nodes).preference("skyserver.radial@3,5,-2")
        second = HashRing(nodes).preference("skyserver.radial@3,5,-2")
        assert first == second

    def test_single_node_ring(self):
        ring = HashRing(["only"])
        assert ring.preference("anything") == ("only",)
        assert ring.successors("only") == ()

    def test_roughly_balanced(self):
        """With vnodes, 1000 distinct keys should not collapse onto
        one node (a loose bound; the exact split is hash-determined)."""
        ring = HashRing([f"shard-{i}" for i in range(4)])
        counts: dict[str, int] = {}
        for index in range(1000):
            owner = ring.primary(f"key-{index}")
            counts[owner] = counts.get(owner, 0) + 1
        assert len(counts) == 4
        assert max(counts.values()) < 2.5 * min(counts.values())

    def test_minimal_disruption_on_node_loss(self):
        """Keys not owned by a removed node keep their primary — the
        consistent-hashing property the failover chain relies on."""
        before = HashRing(["a", "b", "c", "d"])
        after = HashRing(["a", "b", "c"])
        for index in range(300):
            key = f"key-{index}"
            if before.primary(key) != "d":
                assert after.primary(key) == before.primary(key)


class TestSuccessors:
    def test_unknown_node_raises(self):
        with pytest.raises(ValueError, match="unknown ring node"):
            HashRing(["a"]).successors("ghost")

    def test_excludes_self_and_covers_rest(self):
        ring = HashRing(["a", "b", "c", "d"])
        chain = ring.successors("b")
        assert "b" not in chain
        assert sorted(chain) == ["a", "c", "d"]
