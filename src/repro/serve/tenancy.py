"""Tenants, the tenant registry, and the weighted-fair request queue.

A tenant bundles the per-client QoS knobs: a scheduling ``weight`` (share
of worker capacity under contention), an optional token-bucket rate limit,
an RBAC ``role`` from :mod:`repro.core.auth` (enforced as one more term of
the search pre-filter, ``AccessController.search_filter``, on the snapshot
the server already holds; served GSQL is refused to non-admin roles), and
an ``allow_writes`` flag enforced on the GSQL path.

Scheduling is stride-based weighted fair queueing: each tenant carries a
virtual *pass*; the dispatcher always pops from the non-empty tenant with
the smallest pass and advances it by ``1 / weight``, so a weight-3 tenant
drains three requests for every one of a weight-1 tenant while neither
starves.

*Within* a tenant, dequeue is deadline-ordered (EDF) rather than FIFO:
each per-tenant queue is a heap keyed by ``(deadline, arrival_seq)``, so
a near-deadline request runs before an earlier-arrived request with
slack, and requests without deadlines (or with equal deadlines) keep
exact arrival order via the monotone sequence tiebreak.  Cross-tenant
fairness is untouched — EDF only chooses *which* of a tenant's requests
uses the stride slot the tenant already won.  Every pop that overtakes
an earlier arrival is counted in ``serve.deadline_reorders`` (recorded
outside the condition: the queue stays a lock leaf).
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from ..errors import AdmissionRejectedError, ServeError
from ..telemetry import get_telemetry

__all__ = ["Tenant", "TenantRegistry", "WeightedFairQueue"]


@dataclass(frozen=True)
class Tenant:
    """One client of the query server and its QoS contract."""

    name: str
    weight: float = 1.0
    role: str = "admin"
    rate_limit: float | None = None  # sustained requests/second; None = unlimited
    burst: float | None = None  # token-bucket capacity; default max(1, rate_limit)
    allow_writes: bool = True
    #: Fraction of the server's queue bound this tenant may occupy alone
    #: (None = no per-tenant cap).  A flooding tenant then sheds at its own
    #: share instead of filling the whole queue against everyone else.
    max_queue_share: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ServeError(f"tenant '{self.name}': weight must be positive")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ServeError(f"tenant '{self.name}': rate_limit must be positive")
        if self.max_queue_share is not None and not 0.0 < self.max_queue_share <= 1.0:
            raise ServeError(
                f"tenant '{self.name}': max_queue_share must be in (0, 1]"
            )


class TenantRegistry:
    """Named tenants known to one server; always contains ``default``.

    The set is fixed when the registry is built.
    """

    def __init__(self, tenants: Iterable[Tenant] | None = None):
        self._tenants: dict[str, Tenant] = {}
        for tenant in tenants or ():
            self._tenants[tenant.name] = tenant
        if "default" not in self._tenants:
            self._tenants["default"] = Tenant("default")

    def get(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise ServeError(f"unknown tenant '{name}'")
        return tenant

    def names(self) -> list[str]:
        return list(self._tenants)


class WeightedFairQueue:
    """Bounded-latency fair scheduler over per-tenant FIFO queues.

    Thread-safe; every structural mutation happens under one condition
    variable, which is also the wakeup channel for blocked workers.  The
    queue is *leaf-like* by design: no method calls back into the engine
    while holding the condition.
    """

    def __init__(self, registry: TenantRegistry):
        self._registry = registry
        self._cond = threading.Condition(threading.Lock())
        #: Per-tenant EDF heaps of ``(deadline_key, arrival_seq, item)``.
        self._queues: dict[str, list] = {}
        self._passes: dict[str, float] = {}
        self._vtime = 0.0
        self._size = 0
        self._puts = 0  # monotone arrival counter; see wait_for_put
        self._seq = 0  # within-tenant FIFO tiebreak for equal deadlines
        self._closed = False

    @staticmethod
    def _deadline_key(item) -> float:
        """EDF sort key: the item's deadline, or +inf for pure FIFO."""
        deadline = getattr(item, "deadline", None)
        return math.inf if deadline is None else float(deadline)

    # ------------------------------------------------------------- producers
    def put(self, item, tenant_name: str) -> int:
        """Enqueue for ``tenant_name``; returns the new total depth."""
        weight = self._registry.get(tenant_name).weight  # raises on unknown
        del weight
        with self._cond:
            if self._closed:
                raise AdmissionRejectedError(
                    "server is shutting down", reason="shutdown"
                )
            queue = self._queues.get(tenant_name)
            if queue is None:
                queue = self._queues[tenant_name] = []
            if not queue:
                # Stride activation: a long-idle tenant resumes at the
                # current virtual time instead of monopolizing the workers
                # with its stale (tiny) pass.
                self._passes[tenant_name] = max(
                    self._passes.get(tenant_name, 0.0), self._vtime
                )
            self._seq += 1
            heapq.heappush(queue, (self._deadline_key(item), self._seq, item))
            self._size += 1
            self._puts += 1
            self._cond.notify_all()
            return self._size

    # ------------------------------------------------------------- consumers
    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def depth(self) -> int:
        with self._cond:
            return self._size

    def depth_for(self, tenant_name: str) -> int:
        """How many queued requests belong to one tenant (admission input)."""
        with self._cond:
            queue = self._queues.get(tenant_name)
            return len(queue) if queue else 0

    def _pop_fair(self, eligible: list[str]):  # repro: noqa[R001] -- only reachable from take/drain_matching, which hold _cond
        """EDF-pop from the eligible tenant with the smallest pass (cond held).

        Returns ``(item, reordered)``; ``reordered`` is True when the pop
        overtook an earlier arrival of the same tenant (a deadline jump),
        so callers can record ``serve.deadline_reorders`` after releasing
        the condition.
        """
        name = min(eligible, key=lambda n: (self._passes[n], n))
        queue = self._queues[name]
        deadline_key, seq, item = heapq.heappop(queue)
        # An infinite-key pop means no deadline-bearing entry remains, and
        # the seq tiebreak makes it the oldest arrival — never a reorder.
        reordered = deadline_key != math.inf and any(
            entry[1] < seq for entry in queue
        )
        self._size -= 1
        self._vtime = max(self._vtime, self._passes[name])
        self._passes[name] += 1.0 / self._registry.get(name).weight
        return item, reordered

    def take(self, timeout: float | None = None):
        """Dequeue the fair-scheduled next request.

        Returns ``None`` on timeout, or when the queue is closed and empty.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        item = reordered = None
        with self._cond:
            while True:
                if self._size:
                    eligible = [n for n, q in self._queues.items() if q]
                    item, reordered = self._pop_fair(eligible)
                    break
                if self._closed:
                    return None
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)
        if reordered:
            get_telemetry().inc("serve.deadline_reorders")
        return item

    def drain_matching(self, predicate: Callable, limit: int) -> list:
        """Pop up to ``limit`` queue *fronts* that satisfy ``predicate``.

        Only fronts (each tenant's EDF head) are considered so per-tenant
        dequeue order is preserved; fairness charges apply as in
        :meth:`take`.  Non-blocking.
        """
        out: list = []
        reorders = 0
        with self._cond:
            while len(out) < limit and self._size:
                eligible = [
                    n for n, q in self._queues.items() if q and predicate(q[0][2])
                ]
                if not eligible:
                    break
                item, reordered = self._pop_fair(eligible)
                out.append(item)
                reorders += int(reordered)
        if reorders:
            get_telemetry().inc("serve.deadline_reorders", reorders)
        return out

    def put_sequence(self) -> int:
        """Monotone count of :meth:`put` calls; pair with :meth:`wait_for_put`."""
        with self._cond:
            return self._puts

    def wait_for_put(self, since: int, timeout: float) -> int:
        """Block until a put lands after ``since`` (or timeout/close).

        Returns the current put counter.  Unlike waiting for "non-empty",
        this blocks even while non-matching items sit queued — the
        batcher's cue to re-scan queue fronts is a *new arrival*, so a
        queue full of incompatible requests costs it one wait, not a busy
        spin through the whole collection window.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._puts == since and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return self._puts

    def close(self) -> list:
        """Refuse new work, wake all waiters, and return undelivered items."""
        with self._cond:
            self._closed = True
            leftovers: list = []
            for queue in self._queues.values():
                leftovers.extend(entry[2] for entry in sorted(queue))
                queue.clear()
            self._size = 0
            self._cond.notify_all()
            return leftovers
