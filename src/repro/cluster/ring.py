# concurrency: serve-path
"""The consistent-hash ring the shard router places queries on.

Classic consistent hashing with virtual nodes: each shard id is hashed
onto the ring :data:`VNODES` times, a route key walks clockwise from its
own hash to the first vnode, and the failover chain is the continued
walk — the next *distinct* shards in ring order.  Hashing is MD5-based
and therefore stable across processes and interpreter restarts (unlike
``hash()``, which is salted): the same shard set and the same key
always produce the same preference order, which is what makes routing
decisions replayable byte for byte.

The ring is immutable after construction.  Membership changes (a shard
draining out, a crashed shard being skipped) are the *router's* state;
the ring only answers "in what order would these shards be tried?".
"""

from __future__ import annotations

import bisect
import hashlib

#: Virtual nodes per shard on the ring.
VNODES = 64


def ring_hash(token: str) -> int:
    """A stable 64-bit position on the ring for ``token``."""
    digest = hashlib.md5(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """An immutable consistent-hash ring over a set of shard ids."""

    def __init__(self, nodes: tuple[str, ...] | list[str]):
        if not nodes:
            raise ValueError("a hash ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate ring nodes: {sorted(nodes)}")
        self.nodes = tuple(sorted(nodes))
        points = []
        for node in self.nodes:
            for replica in range(VNODES):
                points.append((ring_hash(f"{node}#{replica}"), node))
        points.sort()
        self._points = tuple(points)
        self._hashes = tuple(point[0] for point in points)

    def __len__(self) -> int:
        return len(self.nodes)

    def preference(self, key: str) -> tuple[str, ...]:
        """Every node, in the order the walk from ``key`` reaches them.

        The first entry is the key's primary owner; the rest are its
        failover chain.  Each node appears exactly once.
        """
        start = bisect.bisect_left(self._hashes, ring_hash(key))
        seen: list[str] = []
        for offset in range(len(self._points)):
            _, node = self._points[(start + offset) % len(self._points)]
            if node not in seen:
                seen.append(node)
                if len(seen) == len(self.nodes):
                    break
        return tuple(seen)

    def primary(self, key: str) -> str:
        """The node that owns ``key``."""
        return self.preference(key)[0]

    def successors(self, node: str) -> tuple[str, ...]:
        """The other nodes in walk order from ``node``'s ring position.

        The natural handoff order for a departing shard: its cache is
        replayed into the first live entry of this tuple.
        """
        if node not in self.nodes:
            raise ValueError(f"unknown ring node {node!r}")
        return tuple(n for n in self.preference(node) if n != node)
