"""Consistent-hash ring over (tenant, segment-group) routing keys.

The elastic serve tier routes every request key — a ``(tenant, group)``
pair, where a *group* is one embedding-segment ordinal on the live tier
— to the shard that owns it.
Ownership defaults to consistent hashing so that membership changes move
as few keys as possible: each server contributes :data:`VIRTUAL_POINTS`
points on a 64-bit ring (seeded BLAKE2b, no process-salt randomness), a
key is owned by the first virtual point at or clockwise-after its hash,
and when a server joins or leaves only the keys whose arc it covers
change hands — in expectation ``1/n`` of the keyspace, never a full
reshuffle.

The ring records membership and hashing only.  Where a live key actually
lives — including a rebalancer's move off its hash owner — is the
router's ownership entry (``ElasticTier._owners``).

**Bounded loads** — :meth:`ConsistentHashRing.balanced_assignment`
assigns a known key population in ring order while capping every server
at ``ceil(keys / servers)`` (consistent hashing with bounded loads);
overflow walks clockwise to the next server with spare capacity.  The
tier's ``rebalance_evenly`` and the simulated capacity model use it, so
adding a server buys near-proportional throughput instead of whatever
the raw hash imbalance allows.  A key's first grant on the tier is its
plain hash owner, :meth:`ConsistentHashRing.owner`.

The ring is a lock leaf: every method takes one internal lock and never
calls out while holding it.
"""

from __future__ import annotations

import bisect
import hashlib
import threading

from ..errors import ElasticError

__all__ = ["ConsistentHashRing"]

#: Virtual points each server places on the ring.
VIRTUAL_POINTS = 96


def _hash64(text: str) -> int:
    """Stable 64-bit ring position (BLAKE2b; independent of PYTHONHASHSEED)."""
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


class ConsistentHashRing:
    """Virtual-point consistent hashing with a bounded-load assignment."""

    def __init__(self):
        self._lock = threading.Lock()
        #: sorted virtual-point positions and the parallel owner list
        self._points: list[int] = []
        self._owners: list[str] = []
        self._servers: set[str] = set()

    @staticmethod
    def key_position(tenant: str, group: int) -> int:
        """Ring position of one routing key (public for the property tests)."""
        return _hash64(f"k:{tenant}/{int(group)}")

    # ------------------------------------------------------------ membership
    def add(self, server: str) -> None:
        """Join a server (idempotent); inserts its virtual points."""
        if not server:
            raise ElasticError("server name must be non-empty")
        with self._lock:
            if server in self._servers:
                return
            self._servers.add(server)
            for i in range(VIRTUAL_POINTS):
                point = _hash64(f"s:{server}#{i}")
                at = bisect.bisect_left(self._points, point)
                self._points.insert(at, point)
                self._owners.insert(at, server)

    def remove(self, server: str) -> bool:
        """Leave a server; returns whether it was a member."""
        with self._lock:
            if server not in self._servers:
                return False
            self._servers.discard(server)
            keep = [i for i, owner in enumerate(self._owners) if owner != server]
            self._points = [self._points[i] for i in keep]
            self._owners = [self._owners[i] for i in keep]
            return True

    def servers(self) -> list[str]:
        with self._lock:
            return sorted(self._servers)

    # --------------------------------------------------------------- routing
    def _owner_at(self, position: int) -> str:
        """First virtual point at/clockwise-after ``position`` (lock held)."""
        if not self._points:
            raise ElasticError("consistent-hash ring has no servers")
        at = bisect.bisect_left(self._points, position)
        if at == len(self._points):
            at = 0  # wrap past 2^64 back to the first point
        return self._owners[at]

    def owner(self, tenant: str, group: int) -> str:
        """The server whose arc holds ``(tenant, group)``."""
        with self._lock:
            return self._owner_at(self.key_position(tenant, group))

    # ------------------------------------------------------------ assignment
    def balanced_assignment(
        self, tenant: str, groups: range | list[int]
    ) -> dict[int, str]:
        """Bounded-load assignment: hash order, per-server cap ``ceil(G/N)``.

        Each key starts at its hash owner and walks clockwise (in server
        ring order) past servers already at the cap, so load never exceeds
        one key over a perfect split while key movement on membership
        change stays incremental.
        """
        with self._lock:
            if not self._servers:
                raise ElasticError("consistent-hash ring has no servers")
            keys = [int(g) for g in groups]
            cap = -(-len(keys) // len(self._servers))  # ceil
            load = {server: 0 for server in self._servers}
            order = sorted(self._servers, key=lambda s: _hash64(f"s:{s}#0"))
            out: dict[int, str] = {}
            # Deterministic pass in key-position order mirrors arc ownership.
            for group in sorted(keys, key=lambda g: self.key_position(tenant, g)):
                owner = self._owner_at(self.key_position(tenant, group))
                if load[owner] >= cap:
                    start = order.index(owner)
                    for step in range(1, len(order) + 1):
                        candidate = order[(start + step) % len(order)]
                        if load[candidate] < cap:
                            owner = candidate
                            break
                out[group] = owner
                load[owner] += 1
            return out
