"""ElasticTier: consistent-hash routed, live-rebalancing serve tier.

The distributed story of the paper's Sec. 3/5 — segment-partitioned
vector data behind a coordinator that fans a top-k out to owners and
merges — lifted to the serving layer: several shards each own a subset
of *segment groups* (a group is one segment ordinal, the same in every
attribute store, mirroring vertex-centric partitioning), a
:class:`ConsistentHashRing` keyed by ``(tenant, group)`` decides default
ownership, and the router fans each query to the owners and merges the
partials with :func:`~repro.core.search.merge_sharded_topk` — which
reconstructs the unsharded answer byte-for-byte (see its docstring for
the containment argument).

**One seam to the shards.**  The router calls a shard only through the
seven members of :class:`~repro.elastic.shard.ShardTransport`; the default
transport, :class:`~repro.elastic.shard.ShardServer`, runs on threads.

**Routing and retry.**  Ownership entries materialize lazily from the
ring (grant first, publish second, so a published entry is always backed
by a shard-side grant).  A sub-request that fails because ownership
moved (:class:`SegmentOwnershipError`) or because its server died
(``shutdown``-reason admission error / refusal to accept) is re-routed
to the current owner — bounded rounds, each failure counted in
``elastic.route_retries`` — so a losing race or a crash costs a retry,
never a failed query.  A dead server additionally triggers
:meth:`handle_crash`: it leaves the ring and every key it owned
reassigns to the surviving hash owners.

**Each routing fact has one record.**  A key's ownership entry is the
only record of where it lives (a rebalance off its hash owner sets the
entry's ``pinned`` flag); the ring is the only record of which servers
are members, so a server is live while its shard runs and it is still
in the ring.  The shards' grant sets are the execution-time check of
those entries, not a second routing table.

**Lost groups are a typed partial.**  A sub-request that fails with
:class:`~repro.errors.FaultInjectionError` has already spent its shard's
retries.  If it carried several groups they are re-sent one per
sub-request (not counted as route retries), so a poisoned group costs
only itself; a lone group that fails is lost.  :meth:`ElasticTier.search`
then raises :class:`~repro.errors.PartialResultError` with ``coverage`` =
answered / routed groups and the merge of the answered groups attached.
There is no option to return the partial as an answer, and no hedging:
a key has one owner (DESIGN §13).

**Live rebalancing (drain at a TID, transfer, re-admit).**  A handoff
marks the key *draining* — new routes gate on the entry until the move
completes — records the MVCC handoff point (the snapshot TID at drain
start), waits for the in-flight count to reach zero (every request that
acquired the key before the gate closed has completed; all of them
executed on snapshots at or before the handoff TID), grants the new
owner, revokes the old, marks the entry pinned when the new owner is not
the key's hash owner, and re-admits gated requests.
The execution-time ownership check in the shard is therefore
unreachable for drained handoffs; a rebalance without the drain, or a
router holding no in-flight ref (an explorer twin), makes it fire.

**Replica-coherent caching and cross-replica SLAs.**  The router reads
the watermark vector once, pins ONE snapshot for the whole fan-out, and
ships both to every shard; partial-cache entries are keyed by the
shipped vector (plus the group tuple), so no replica can serve a cached
partial staler than the router's observation, and fills are gated by
the router's commit-race verdict exactly like the single-server path.
Every routed search pins its snapshot through
:func:`~repro.serve.server.freshness_gate` — the gate every
``QueryServer`` vector batch pins through — so ``max_staleness`` /
``session_token`` contracts are enforced *at the router*, before the
fan-out: the verdict holds for the one shipped snapshot all replicas
execute on, and an SLA answer is never silently stale regardless of
which replicas served the partials.
"""

from __future__ import annotations

import threading
import time

from ..core.search import SearchSpec, build_topk_vertex_set, merge_sharded_topk
from ..errors import (
    AdmissionRejectedError,
    ElasticError,
    FaultInjectionError,
    PartialResultError,
    SegmentOwnershipError,
    ServeError,
)
from ..serve.server import ServeConfig, freshness_gate
from ..serve.tenancy import TenantRegistry
from ..telemetry import get_telemetry
from .ring import ConsistentHashRing
from .shard import ShardServer, ShardTransport

__all__ = ["ElasticTier"]

#: Routing rounds before the router gives up on a query.  Each round
#: re-resolves ownership, so >1 failures per key require >1 concurrent
#: membership events; six rounds is far beyond any schedule the chaos
#: matrix produces while still bounding a pathological flap.
_MAX_ROUTE_ROUNDS = 6

#: Gate re-check cadence while a key drains (the rebalancer notifies the
#: condition on completion; the timeout only bounds lost-wakeup risk).
_GATE_WAIT = 0.05


class _Ownership:
    """Mutable routing state for one materialized ``(tenant, group)`` key.

    The one record of where the key lives.  ``pinned`` is set when a
    rebalance placed the key somewhere other than its ring owner at that
    moment; :meth:`ElasticTier.add_server` leaves such keys where they
    are, and a crash reassignment clears it.  All fields are guarded by
    the tier's single routing condition; the entry object itself is
    stable for the key's lifetime (rebalances mutate ``server`` in place
    so gated waiters resume on the same entry).
    """

    __slots__ = ("server", "pinned", "draining", "inflight")

    def __init__(self, server: str):
        self.server = server
        self.pinned = False
        self.draining = False
        self.inflight = 0


class ElasticTier:
    """Shard-routing front tier over one database: route, merge, rebalance.

    ``transport(db, name, *, config, tenants, injector)`` builds each
    shard."""

    def __init__(
        self,
        db,
        num_servers: int = 2,
        config: ServeConfig | None = None,
        tenants=None,
        injectors: dict | None = None,
        transport=ShardServer,
    ):
        if num_servers < 1:
            raise ElasticError("need at least one server")
        self.db = db
        self.config = config or ServeConfig()
        self.registry = TenantRegistry(tenants)
        self._injectors = dict(injectors or {})
        self._transport = transport
        self.ring = ConsistentHashRing()
        self.shards: dict[str, ShardTransport] = {}
        self._server_seq = 0
        # One condition guards the ownership map and every entry's
        # draining/inflight state; telemetry is recorded outside it.
        self._route_cond = threading.Condition(threading.Lock())
        self._owners: dict[tuple[str, int], _Ownership] = {}
        self._rebalance_log: list[dict] = []
        self._started = False
        for _ in range(num_servers):
            self._new_shard()

    # ------------------------------------------------------------- lifecycle
    def _new_shard(self) -> str:
        name = f"shard-{self._server_seq}"
        self._server_seq += 1
        shard = self._transport(
            self.db,
            name,
            config=self.config,
            tenants=[self.registry.get(name) for name in self.registry.names()],
            injector=self._injectors.get(name),
        )
        with self._route_cond:
            self.shards[name] = shard
        self.ring.add(name)  # ring is its own lock leaf: add outside the cond
        return name

    def start(self) -> "ElasticTier":
        for shard in self.shards.values():
            shard.start()
        self._started = True
        get_telemetry().set_gauge("elastic.servers", len(self._live_names()))
        return self

    def stop(self) -> None:
        self._started = False
        for shard in self.shards.values():
            shard.stop()

    def __enter__(self) -> "ElasticTier":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _live_names(self) -> list[str]:
        members = set(self.ring.servers())
        return [
            name
            for name, shard in sorted(self.shards.items())
            if shard.running and name in members
        ]

    # --------------------------------------------------------------- routing
    def group_universe(self, vector_attributes) -> list[int]:
        """Every group id (segment ordinal) a query over these attributes
        can touch."""
        schema = self.db.schema
        max_segments = 1
        for qualified in vector_attributes:
            vertex_type, _ = schema.embedding_attribute(qualified)
            store = self.db.service.store(vertex_type, qualified.split(".", 1)[1])
            max_segments = max(max_segments, store.num_segments)
        return list(range(max_segments))

    def _materialize(self, tenant: str, group: int) -> _Ownership:
        """Entry for a key, granting the ring owner on first touch.

        Grant-before-publish: by the time any thread can route on the
        entry, the shard-side ownership set already admits the key, so a
        freshly materialized key can never bounce off the execution-time
        ownership check.
        """
        key = (tenant, int(group))
        with self._route_cond:
            entry = self._owners.get(key)
        if entry is not None:
            return entry
        owner = self.ring.owner(tenant, group)
        self.shards[owner].grant(tenant, group)
        with self._route_cond:
            entry = self._owners.get(key)
            if entry is None:
                entry = _Ownership(owner)
                self._owners[key] = entry
            return entry

    def _acquire(self, tenant: str, groups: list[int]) -> list[tuple[int, _Ownership]]:
        """Gate past drains and take an in-flight ref on every group."""
        for group in groups:
            self._materialize(tenant, group)
        gate_waits = 0
        acquired: list[tuple[int, _Ownership]] = []
        with self._route_cond:
            for group in groups:
                entry = self._owners[(tenant, int(group))]
                while entry.draining:
                    gate_waits += 1
                    self._route_cond.wait(_GATE_WAIT)
                entry.inflight += 1
                acquired.append((int(group), entry))
        if gate_waits:
            get_telemetry().inc("elastic.handoff_gate_waits", gate_waits)
        return acquired

    def _release(self, acquired: list[tuple[int, _Ownership]]) -> None:
        with self._route_cond:
            for _, entry in acquired:
                entry.inflight -= 1
            self._route_cond.notify_all()

    def _routed_parts(
        self,
        spec: SearchSpec,
        *,
        tenant: str,
        prefilter,
        snapshot,
        watermarks: tuple,
        cache_ok: bool,
        groups: list[int],
        deadline: float | None,
    ) -> tuple[list, list[int], FaultInjectionError | None]:
        """Fan the group set to owners, retrying routes lost to races/crashes.

        Returns ``(parts, lost, cause)``: the partials of the groups that
        answered, the groups lost to a :class:`FaultInjectionError` that
        outlived the shard's own retries, and the first such error.  A
        multi-group sub-request that fails that way is split: its groups go
        again next round, one per sub-request, so a poisoned group costs only
        itself.  A single-group one that fails loses its group.
        """
        tel = get_telemetry()
        parts: list = []
        lost: list[int] = []
        cause: FaultInjectionError | None = None
        alone: set[int] = set()  # groups re-sent one per sub-request
        remaining = list(groups)
        for _ in range(_MAX_ROUTE_ROUNDS):
            if not remaining:
                return parts, lost, cause
            acquired = self._acquire(tenant, remaining)
            failed: list[int] = []
            resent: list[int] = []
            dead: set[str] = set()
            try:
                assignment: dict[str, list[int]] = {}
                for group, entry in acquired:
                    assignment.setdefault(entry.server, []).append(group)
                batches = []
                for server, server_groups in sorted(assignment.items()):
                    together = [g for g in server_groups if g not in alone]
                    if together:
                        batches.append((server, together))
                    batches.extend((server, [g]) for g in server_groups if g in alone)
                futures = []
                for server, server_groups in batches:
                    shard = self.shards.get(server)
                    if shard is None or not shard.running:
                        failed.extend(server_groups)
                        dead.add(server)
                        continue
                    try:
                        future = shard.submit_shard(
                            spec,
                            tenant=tenant,
                            prefilter=prefilter,
                            snapshot=snapshot,
                            watermarks=watermarks,
                            cache_ok=cache_ok,
                            groups=server_groups,
                            deadline=deadline,
                        )
                    except ServeError:
                        # Refused at the door mid-shutdown: treat like a
                        # dead server and re-route its groups.
                        failed.extend(server_groups)
                        dead.add(server)
                        continue
                    futures.append((server, server_groups, future))
                for server, server_groups, future in futures:
                    error = future.exception()
                    if error is None:
                        parts.append(future.result())
                        continue
                    if isinstance(error, SegmentOwnershipError):
                        failed.extend(server_groups)
                    elif (
                        isinstance(error, AdmissionRejectedError)
                        and error.reason == "shutdown"
                    ):
                        failed.extend(server_groups)
                        dead.add(server)
                    elif isinstance(error, FaultInjectionError):
                        cause = cause or error
                        if len(server_groups) > 1:
                            alone.update(server_groups)
                            resent.extend(server_groups)
                        else:
                            lost.extend(server_groups)
                    else:
                        raise error
            finally:
                self._release(acquired)
            for server in dead:
                self.handle_crash(server)
            if failed:
                tel.inc("elastic.route_retries", len(failed))
            remaining = failed + resent
        raise ElasticError(
            f"routing did not converge after {_MAX_ROUTE_ROUNDS} rounds "
            f"(groups {sorted(remaining)} kept moving)"
        )

    # ---------------------------------------------------------------- search
    def search(
        self,
        vector_attributes,
        query_vector,
        k: int,
        *,
        tenant: str = "default",
        ef: int | None = None,
        filter=None,
        distance_map=None,
        timeout: float | None = None,
        max_staleness: int | None = None,
        session_token: int | None = None,
    ):
        """Routed top-k: fan to owners, merge, materialize a VertexSet.

        The result is byte-identical to ``QueryServer``'s (and therefore
        to a direct ``db.vector_search``): same snapshot semantics —
        one pinned snapshot serves every shard — and the merge re-applies
        the exact (distance, vid) and stable-by-distance orders of the
        unsharded pipeline.  The :class:`~repro.core.search.SearchSpec` is
        built first, so a search it refuses pins nothing and sends no
        sub-request.

        A segment group whose search fault outlives its shard's retries
        does not fail the others: the query raises
        :class:`PartialResultError` carrying ``coverage`` (answered / routed
        groups) and ``result``, the merge of the groups that answered (with
        ``distance_map`` filled from it).  A partial answer is never
        returned as if it were whole.
        """
        tel = get_telemetry()
        tel.inc("elastic.routed_requests")
        if not self._started:
            raise ServeError("ElasticTier is not running; call start() first")
        if max_staleness is None:
            max_staleness = self.config.default_max_staleness
        spec = SearchSpec(
            self.db.service, vector_attributes, query_vector, k,
            ef=ef, filter=filter, distance_map=distance_map,
            max_staleness=max_staleness, session_token=session_token,
        )
        role = self.registry.get(tenant).role
        groups = self.group_universe(spec.attributes)
        deadline = self.config.deadline(time.monotonic(), timeout)
        with freshness_gate(
            self.db, spec, self.config.staleness_wait, deadline
        ) as (snapshot, watermarks, lag):
            # lag == 0: the snapshot covers every watermark component, so
            # shards may hit and fill partials keyed by the shipped vector.
            if lag:
                tel.inc("elastic.cache_coherence_bypass")
            # Role masks are built once per routed query (a row-predicate role
            # is an O(rows) scan) and ride to the shards as their pre-filter.
            prefilter = self.db.access.search_filter(
                role, snapshot, spec.attributes, spec.filter
            )
            parts, lost, cause = self._routed_parts(
                spec,
                tenant=tenant,
                prefilter=prefilter,
                snapshot=snapshot,
                watermarks=watermarks,
                cache_ok=lag == 0,
                groups=groups,
                deadline=deadline,
            )
        result = build_topk_vertex_set(merge_sharded_topk(parts, spec.k), spec.distance_map)
        if lost:
            tel.inc("resilience.degraded_queries")
            coverage = (len(groups) - len(lost)) / len(groups)
            raise PartialResultError(
                f"segment group(s) {sorted(lost)} of {len(groups)} failed past "
                f"their shard's retries (coverage {coverage:.2f})",
                coverage=coverage,
                result=result,
            ) from cause
        return result

    # ------------------------------------------------------------- rebalance
    def rebalance(self, tenant: str, group: int, to_server: str) -> dict | None:
        """Move one key live: drain at a TID, transfer, re-admit.

        Returns the handoff log entry, or ``None`` for a no-op move.
        """
        if to_server not in self.shards:
            raise ElasticError(f"unknown rebalance target '{to_server}'")
        if to_server not in self._live_names():
            raise ElasticError(f"rebalance target '{to_server}' is not running")
        tel = get_telemetry()
        self._materialize(tenant, group)
        key = (tenant, int(group))
        gate_waits = 0
        with self._route_cond:
            entry = self._owners[key]
            while entry.draining:
                # One handoff at a time per key; a concurrent mover waits
                # its turn like any routed request.
                gate_waits += 1
                self._route_cond.wait(_GATE_WAIT)
            if entry.server == to_server:
                return None
            from_server = entry.server
            entry.draining = True
        if gate_waits:
            tel.inc("elastic.handoff_gate_waits", gate_waits)
        # The MVCC handoff point: every request admitted before the gate
        # closed pinned a snapshot at or before this TID; everything after
        # re-admission executes on the new owner.
        with self.db.snapshot() as snapshot:
            drain_tid = snapshot.tid
        drain_waits = 0
        with self._route_cond:
            while entry.inflight > 0:
                drain_waits += 1
                self._route_cond.wait(_GATE_WAIT)
        # Grant before revoke: the key always has at least one admitted
        # owner, and routing is still gated so nobody can race the pair.
        self.shards[to_server].grant(tenant, group)
        self.shards[from_server].revoke(tenant, group)
        pinned = to_server != self.ring.owner(tenant, group)
        with self._route_cond:
            entry.server = to_server
            entry.pinned = pinned
            entry.draining = False
            self._route_cond.notify_all()
        tel.inc("elastic.rebalances")
        if drain_waits:
            tel.inc("elastic.rebalance_drain_waits", drain_waits)
        record = {
            "tenant": tenant,
            "group": int(group),
            "from": from_server,
            "to": to_server,
            "drain_tid": drain_tid,
            "drain_waits": drain_waits,
        }
        self._rebalance_log.append(record)
        return record

    def rebalance_evenly(self, tenant: str, vector_attributes) -> int:
        """Drive ownership to the bounded-load assignment; returns move count."""
        groups = self.group_universe(list(vector_attributes))
        live = self._live_names()
        target = ConsistentHashRing()
        for name in live:
            target.add(name)
        plan = target.balanced_assignment(tenant, groups)
        moves = 0
        for group, server in sorted(plan.items()):
            entry = self._materialize(tenant, group)
            if entry.server != server:
                if self.rebalance(tenant, group, server) is not None:
                    moves += 1
        return moves

    def handle_crash(self, name: str) -> int:
        """Fail a server out: leave the ring, reassign its keys; returns moves."""
        first = self.ring.remove(name)
        with self._route_cond:
            orphaned = [
                (tenant, group)
                for (tenant, group), entry in self._owners.items()
                if entry.server == name
            ]
        moved = 0
        for tenant, group in sorted(orphaned):
            new_owner = self.ring.owner(tenant, group)
            self.shards[new_owner].grant(tenant, group)
            with self._route_cond:
                entry = self._owners[(tenant, group)]
                if entry.server == name:
                    entry.server = new_owner
                    entry.pinned = False
                    entry.draining = False
                    moved += 1
                self._route_cond.notify_all()
        tel = get_telemetry()
        if first:
            tel.inc("elastic.crash_failovers")
        tel.set_gauge("elastic.servers", len(self._live_names()))
        return moved

    # ------------------------------------------------------------ membership
    def add_server(self) -> str:
        """Scale out one server and migrate keys the ring now hashes to it."""
        name = self._new_shard()
        if self._started:
            self.shards[name].start()
        with self._route_cond:
            # Keys a rebalance placed stay put: its decision outranks the
            # hash movement.
            unpinned = sorted(
                key for key, entry in self._owners.items() if not entry.pinned
            )
        for tenant, group in unpinned:
            owner = self.ring.owner(tenant, group)
            with self._route_cond:
                current = self._owners[(tenant, group)].server
            if owner != current:
                self.rebalance(tenant, group, owner)
        get_telemetry().set_gauge("elastic.servers", len(self._live_names()))
        return name

    def remove_server(self, name: str | None = None) -> str:
        """Scale in one server gracefully: migrate every key, then stop it."""
        live = self._live_names()
        if len(live) <= 1:
            raise ElasticError("cannot remove the last live server")
        if name is None:
            name = live[-1]
        if name not in self.shards or name not in live:
            raise ElasticError(f"unknown or dead server '{name}'")
        self.ring.remove(name)
        with self._route_cond:
            owned = sorted(
                key for key, entry in self._owners.items() if entry.server == name
            )
        for tenant, group in owned:
            self.rebalance(tenant, group, self.ring.owner(tenant, group))
        shard = self.shards.pop(name)
        shard.stop()
        get_telemetry().set_gauge("elastic.servers", len(self._live_names()))
        return name

    # ---------------------------------------------------------------- stats
    def ownership(self) -> dict[str, dict[str, list[int]]]:
        """server -> tenant -> sorted groups (materialized keys only)."""
        with self._route_cond:
            items = [(key, entry.server) for key, entry in self._owners.items()]
        out: dict[str, dict[str, list[int]]] = {}
        for (tenant, group), server in sorted(items):
            out.setdefault(server, {}).setdefault(tenant, []).append(group)
        return out

    def stats(self) -> dict:
        """Router + per-server stats for the CLI/shell surfaces.

        ``routed_requests``, ``route_retries``, ``cache_coherence_bypass``
        and ``crash_failovers`` are read from the active telemetry registry;
        with telemetry off (the default) nothing counts them, and they are
        ``None``, not 0.  A server's ``rebalances_in`` / ``rebalances_out``
        count the logged handoffs to / from it (a first grant is none).
        """
        tel = get_telemetry()

        def counter(name: str) -> int | None:
            return tel.registry.counter(name).value if tel.enabled else None

        log = list(self._rebalance_log)
        per_server = {}
        for name, shard in sorted(self.shards.items()):
            stats = shard.stats()
            cache = stats.get("cache") or {}
            per_server[name] = {
                "running": stats["running"],
                "owned": stats["owned"],
                "rebalances_in": sum(1 for record in log if record["to"] == name),
                "rebalances_out": sum(1 for record in log if record["from"] == name),
                "queue_depth": stats["queue_depth"],
                "workers_alive": stats.get("workers_alive", 0),
                "cache_hit_ratio": cache.get("hit_ratio", 0.0),
                "cache_entries": cache.get("entries", 0),
            }
        return {
            "servers": per_server,
            "live_servers": self._live_names(),
            "ownership": self.ownership(),
            "rebalances": len(log),
            "rebalance_log": log,
            "routed_requests": counter("elastic.routed_requests"),
            "route_retries": counter("elastic.route_retries"),
            "cache_coherence_bypass": counter("elastic.cache_coherence_bypass"),
            "crash_failovers": counter("elastic.crash_failovers"),
        }
