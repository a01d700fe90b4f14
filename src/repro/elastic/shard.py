"""ShardServer: a :class:`QueryServer` that owns a subset of segment groups.

A *group* is one segment ordinal of every attribute store.  The router
reaches a shard only through :class:`ShardTransport`; ``ShardServer`` is
its thread implementation.

Each shard is a full serving stack — admission control, weighted-fair
queue, worker pool, chaos hooks, and a per-tenant result cache — plus an
*ownership set* of ``(tenant, group)`` keys granted by the elastic tier's
router.  Routed sub-requests (:class:`ShardRequest`) flow through the same
queue and workers as ordinary requests, so tenant fairness and fault
injection apply to shard traffic too, but execute
:func:`~repro.core.search.vector_search_parts` of the router's checked
:class:`~repro.core.search.SearchSpec` over only the owned segment
ordinals and complete their future with the *partial* per-attribute top-k
pairs for the router to merge.

Two contracts matter here:

- **Execution-time ownership check.**  Ownership is re-validated by the
  worker immediately before the search, not just at routing time.  A
  sub-request that raced a handoff and reached a shard after its group
  was revoked fails with a typed
  :class:`~repro.errors.SegmentOwnershipError` — never a silently wrong
  partial computed over segments the shard no longer serves.  The
  router treats that error as retryable.  (The drain protocol makes the
  race unreachable for *granted-then-drained* handoffs; the check is the
  belt to that suspender, and the explorer's tier rows fail on any refusal
  it answers — which their twin, a router holding no in-flight ref, trips.)
- **Replica-coherent caching.**  The shard never reads watermarks
  itself: the router reads the watermark vector once, pins one snapshot,
  and ships both with every sub-request.  The partial cache key is the
  spec's watermark-keyed :meth:`SearchSpec.cache_key` *extended with the
  owned group tuple*, so (a) an entry can only be hit by a request whose
  router observed the identical watermark vector — a replica can never
  answer from state staler than the router's observation — and (b)
  partials computed over different group subsets (before/after a
  rebalance) can never alias.  Fills are further gated by the router's
  ``cache_ok`` verdict (snapshot covers every watermark component),
  reusing the commit-race analysis from :mod:`repro.serve.cache`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Protocol

from ..analysis.hooks import schedule_point
from ..core.search import SearchSpec, vector_search_parts
from ..errors import ReproError, SegmentOwnershipError
from ..graph.txn import Snapshot
from ..serve.server import QueryRequest, QueryServer, ServeConfig, ServeFuture
from ..telemetry import get_telemetry

__all__ = ["ShardRequest", "ShardServer", "ShardTransport"]


class ShardTransport(Protocol):
    """The seven members :class:`~repro.elastic.router.ElasticTier` calls on
    a shard, and nothing else.  A transport decides only how a sub-request
    reaches the shard; ``stats()`` reports at least ``running``, ``owned``
    and ``queue_depth``."""

    def submit_shard(
        self, spec: SearchSpec, *, tenant: str, prefilter, snapshot,
        watermarks: tuple, cache_ok: bool, groups, deadline: float | None,
    ) -> ServeFuture: ...

    def grant(self, tenant: str, group: int) -> None: ...

    def revoke(self, tenant: str, group: int) -> None: ...

    @property
    def running(self) -> bool: ...

    def start(self): ...

    def stop(self) -> None: ...

    def stats(self) -> dict: ...


@dataclass(eq=False, kw_only=True)
class ShardRequest(QueryRequest):
    """One routed sub-request: a partial search over owned groups.

    It never fuses (the base ``batch_key()`` is ``None``: each carries its
    own group set and shipped snapshot) and never touches the whole-query
    cache; the shard keeps its own partial entries in
    :meth:`ShardServer._execute_shard`.
    """

    spec: SearchSpec
    #: The router's pre-filter in force: ``spec.filter`` ANDed with the
    #: tenant's role masks at the shipped snapshot.
    prefilter: object | None = None
    #: Segment groups this sub-request must cover (sorted by the router).
    groups: tuple[int, ...]
    #: Snapshot pinned by the router; every shard of one routed query
    #: executes on this same snapshot (one consistent MVCC view).
    snapshot: Snapshot
    #: Watermark vector observed by the router *before* pinning.
    watermarks: tuple = ()
    #: Router verdict: the snapshot covers every watermark component, so
    #: the partial may be cached under the shipped watermark key.
    cache_ok: bool = False


class ShardServer(QueryServer):
    """A named QueryServer owning ``(tenant, group)`` keys for the router."""

    def __init__(
        self,
        db,
        name: str,
        config: ServeConfig | None = None,
        tenants=None,
        injector=None,
    ):
        super().__init__(db, config=config, tenants=tenants, injector=injector)
        self.name = str(name)
        # Ownership is a lock leaf guarded by the queue/worker-visible
        # `_owned_lock`; grant/revoke never call out while holding it.
        self._owned_lock = threading.Lock()
        self._owned: set[tuple[str, int]] = set()

    # ------------------------------------------------------------- ownership
    def grant(self, tenant: str, group: int) -> None:
        """Admit ``(tenant, group)``; idempotent (the router may re-grant)."""
        with self._owned_lock:
            self._owned.add((tenant, int(group)))

    def revoke(self, tenant: str, group: int) -> None:
        """Drop ``(tenant, group)``; in-flight checks then fail typed."""
        with self._owned_lock:
            self._owned.discard((tenant, int(group)))

    def owns(self, tenant: str, group: int) -> bool:
        with self._owned_lock:
            return (tenant, int(group)) in self._owned

    def owned_groups(self, tenant: str | None = None) -> dict[str, list[int]]:
        """tenant -> sorted owned groups (optionally one tenant only)."""
        with self._owned_lock:
            owned = sorted(self._owned)
        out: dict[str, list[int]] = {}
        for owner_tenant, group in owned:
            if tenant is not None and owner_tenant != tenant:
                continue
            out.setdefault(owner_tenant, []).append(group)
        return out

    # ---------------------------------------------------------------- submit
    def submit_shard(
        self,
        spec: SearchSpec,
        *,
        tenant: str = "default",
        prefilter=None,
        snapshot,
        watermarks: tuple = (),
        cache_ok: bool = False,
        groups,
        deadline: float | None = None,
    ) -> ServeFuture:
        """Queue one partial search of ``spec`` over ``groups`` on the
        shipped snapshot, under the router's ``prefilter``.

        ``deadline`` is absolute (monotonic clock) — the router forwards
        the parent request's remaining budget so a shard queue backlog
        sheds the partial typed instead of holding the merge hostage.
        """
        tenant_obj = self.registry.get(tenant)
        get_telemetry().inc("elastic.shard_requests")
        request = ShardRequest(
            tenant=tenant_obj,
            future=ServeFuture(),
            submitted_at=time.monotonic(),
            deadline=deadline,
            spec=spec,
            prefilter=prefilter,
            groups=tuple(sorted(int(g) for g in groups)),
            snapshot=snapshot,
            watermarks=tuple(watermarks),
            cache_ok=bool(cache_ok),
        )
        return self._submit(request)

    # -------------------------------------------------------------- dispatch
    def _executor(self, leader: QueryRequest):
        if isinstance(leader, ShardRequest):
            return self._execute_shard
        return super()._executor(leader)

    def _execute_shard(self, request: ShardRequest) -> None:
        tenant = request.tenant.name
        schedule_point("elastic.shard.execute")
        with self._owned_lock:
            missing = [
                group
                for group in request.groups
                if (tenant, group) not in self._owned
            ]
        if missing:
            self._finish(
                request,
                error=SegmentOwnershipError(
                    f"shard '{self.name}' does not own group {missing[0]} for "
                    f"tenant '{tenant}' (ownership moved mid-route)",
                    tenant=tenant,
                    group=missing[0],
                ),
            )
            return

        key = None
        if request.cache_ok and request.prefilter is None and self.cache is not None:
            # Watermark-keyed partial entry, disambiguated by the group
            # tuple (6-tuple keys can never collide with the 5-tuple
            # whole-query keys sharing the partition).
            key, hit = self._cache_get(request, request.watermarks, request.groups)
            if hit is not None:
                self._finish(request, value=hit)
                return

        try:
            parts, _ = self._with_retries(
                lambda: vector_search_parts(
                    self.db.service,
                    request.snapshot,
                    request.spec,
                    request.prefilter,
                    groups=frozenset(request.groups),
                )
            )
        except ReproError as exc:
            self._finish(request, error=exc)
            return
        value = tuple(parts)
        self._cache_put(request, key, value, kernel="shard")
        self._finish(request, value=value)

    # ---------------------------------------------------------------- stats
    def stats(self) -> dict:
        out = super().stats()
        out["name"] = self.name
        out["owned"] = self.owned_groups()
        return out
