"""Tests for repro.elastic: the sharded, consistent-hash-routed serve tier.

Covers the acceptance contracts of the elastic PR:

- the consistent-hash ring: deterministic ownership, key-distribution
  uniformity bounds, minimal key movement on join/leave, and the
  bounded-load assignment cap;
- byte identity: sharded partials merged by ``merge_sharded_topk`` equal
  ``vector_search_merged`` for every partition of the group universe, and
  an :class:`ElasticTier` (1 or N servers) answers exactly like a single
  ``QueryServer`` / direct ``db.vector_search``;
- live rebalancing: drain-at-a-TID handoff records, ownership movement,
  identity preserved under moves, scale out/in migration, and the pin
  rule kept on the router's ownership entries (a rebalanced key stays on
  its target through a join; one whose target leaves returns to its ring
  owner);
- replica-coherent caching: a commit advances the watermark vector, so
  no replica can serve a pre-commit partial for a post-commit request;
- the shard seam: a tier built on a transport that is not a
  ``ShardServer`` answers exactly like the direct path;
- EDF dequeue within a tenant (satellite): fewer deadline misses than
  FIFO at equal throughput, ``serve.deadline_reorders`` accounting, and
  untouched cross-tenant fairness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core.search import (
    SearchSpec,
    merge_sharded_topk,
    vector_search_merged,
    vector_search_parts,
    vector_search_sharded,
)
from repro.elastic import (
    ConsistentHashRing,
    ElasticTier,
    ShardServer,
    SimulatedElasticServe,
)
from repro.errors import ElasticError, SegmentOwnershipError, ServeError
from repro.graph.accumulators import MapAccum
from repro.serve import QueryServer, ServeConfig, Tenant, TenantRegistry, WeightedFairQueue
from repro.serve.server import ServeFuture
from repro.telemetry import Telemetry, use_telemetry

ATTR = "Post.content_emb"
DIM = 16


def members(vset):
    return sorted(vset)


def direct(db, query, k):
    dmap = MapAccum()
    vset = db.vector_search([ATTR], query, k, distance_map=dmap)
    return members(vset), dict(dmap.items())


def merged_triples(db, query, k):
    """Direct-path ordered (dist, vtype, vid) triples — the byte-identity oracle."""
    with db.snapshot() as snapshot:
        return list(
            vector_search_merged(db.service, snapshot, [ATTR], query, k)
        )


# --------------------------------------------------------------------------
# consistent-hash ring properties (satellite 2)
# --------------------------------------------------------------------------


class TestRingBasics:
    def test_owner_deterministic(self):
        ring = ConsistentHashRing()
        for name in ("a", "b", "c"):
            ring.add(name)
        owners = [ring.owner("default", g) for g in range(20)]
        again = ConsistentHashRing()
        for name in ("c", "a", "b"):  # insertion order must not matter
            again.add(name)
        assert owners == [again.owner("default", g) for g in range(20)]

    def test_empty_ring_raises(self):
        ring = ConsistentHashRing()
        with pytest.raises(ElasticError):
            ring.owner("default", 0)

    def test_add_is_idempotent(self):
        ring = ConsistentHashRing()
        ring.add("a")
        ring.add("a")
        assert ring.servers() == ["a"]


class TestRingDistribution:
    """Property tests: uniformity bounds and minimal movement."""

    NUM_KEYS = 3000

    def owners(self, ring):
        return {g: ring.owner("default", g) for g in range(self.NUM_KEYS)}

    def test_key_distribution_uniformity(self):
        servers = [f"s{i}" for i in range(4)]
        ring = ConsistentHashRing()
        for name in servers:
            ring.add(name)
        counts = dict.fromkeys(servers, 0)
        for group in range(self.NUM_KEYS):
            counts[ring.owner("default", group)] += 1
        share = {name: counts[name] / self.NUM_KEYS for name in servers}
        # 96 virtual points per server keep raw hash shares well inside [1/2n, 2/n].
        for name in servers:
            assert 1 / (2 * len(servers)) <= share[name] <= 2 / len(servers), share

    def test_balanced_assignment_exact_cap(self):
        ring = ConsistentHashRing()
        for name in ("a", "b", "c"):
            ring.add(name)
        groups = list(range(20))
        plan = ring.balanced_assignment("default", groups)
        assert sorted(plan) == groups
        loads = [list(plan.values()).count(name) for name in ("a", "b", "c")]
        assert max(loads) <= math.ceil(len(groups) / 3)
        assert sum(loads) == len(groups)

    def test_minimal_movement_on_join(self):
        servers = [f"s{i}" for i in range(3)]
        ring = ConsistentHashRing()
        for name in servers:
            ring.add(name)
        before = self.owners(ring)
        ring.add("joiner")
        after = self.owners(ring)
        moved = [g for g in before if before[g] != after[g]]
        # Every moved key moved *to* the joiner — nothing reshuffles
        # between incumbents — and the moved fraction is close to the
        # expected 1/n arc capture (generous 2x tolerance).
        assert all(after[g] == "joiner" for g in moved)
        assert len(moved) / self.NUM_KEYS <= 2 / (len(servers) + 1)
        assert moved, "joiner captured no keys at all"

    def test_minimal_movement_on_leave(self):
        servers = [f"s{i}" for i in range(4)]
        ring = ConsistentHashRing()
        for name in servers:
            ring.add(name)
        before = self.owners(ring)
        ring.remove("s2")
        after = self.owners(ring)
        for group, owner in before.items():
            if owner != "s2":
                # Only the departed server's keys change hands.
                assert after[group] == owner
            else:
                assert after[group] != "s2"


# --------------------------------------------------------------------------
# sharded search byte identity
# --------------------------------------------------------------------------


class TestShardedIdentity:
    def partitions(self, num_groups):
        yield [list(range(num_groups))]  # everything in one shard
        yield [[g] for g in range(num_groups)]  # one group per shard
        half = num_groups // 2
        yield [list(range(half)), list(range(half, num_groups))]
        yield [list(range(0, num_groups, 2)), list(range(1, num_groups, 2))]

    def test_merge_reconstructs_unsharded_topk(self, loaded_post_db, rng):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        num_groups = store.num_segments
        assert num_groups >= 2, "fixture must span multiple segments"
        queries = rng.standard_normal((6, DIM)).astype(np.float32)
        for q in queries:
            want = merged_triples(db, q, 5)
            for partition in self.partitions(num_groups):
                with db.snapshot() as snapshot:
                    parts = [
                        vector_search_sharded(
                            db.service,
                            snapshot,
                            [ATTR],
                            q,
                            5,
                            groups=frozenset(shard),
                        )
                        for shard in partition
                    ]
                assert merge_sharded_topk(parts, 5) == want

    def test_empty_group_set_yields_empty_partial(self, loaded_post_db, rng):
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        with db.snapshot() as snapshot:
            parts = vector_search_sharded(
                db.service, snapshot, [ATTR], q, 5,
                groups=frozenset([999]),
            )
        assert parts == [("Post", ())]


# --------------------------------------------------------------------------
# the elastic tier
# --------------------------------------------------------------------------


def tier_config():
    return ServeConfig(workers=2, enable_batching=False, enable_cache=True)


class TestElasticTier:
    def test_single_server_matches_query_server(self, loaded_post_db, rng):
        db = loaded_post_db
        queries = rng.standard_normal((8, DIM)).astype(np.float32)
        config = tier_config()
        with QueryServer(db, config) as server, ElasticTier(
            db, num_servers=1, config=config
        ) as tier:
            for q in queries:
                dmap_t, dmap_s = MapAccum(), MapAccum()
                got = tier.search([ATTR], q, 5, distance_map=dmap_t)
                want = server.search([ATTR], q, 5, distance_map=dmap_s)
                assert members(got) == members(want)
                assert dict(dmap_t.items()) == dict(dmap_s.items())

    def test_multi_server_matches_direct(self, loaded_post_db, rng):
        db = loaded_post_db
        queries = rng.standard_normal((8, DIM)).astype(np.float32)
        with ElasticTier(db, num_servers=3, config=tier_config()) as tier:
            for q in queries:
                dmap = MapAccum()
                got = tier.search([ATTR], q, 5, distance_map=dmap)
                want_members, want_dists = direct(db, q, 5)
                assert members(got) == want_members
                assert dict(dmap.items()) == want_dists

    def test_routing_fans_out_to_owners(self, loaded_post_db, rng):
        db = loaded_post_db
        telemetry = Telemetry()
        q = rng.standard_normal(DIM).astype(np.float32)
        with use_telemetry(telemetry), ElasticTier(
            db, num_servers=2, config=tier_config()
        ) as tier:
            tier.search([ATTR], q, 5)
            ownership = tier.ownership()
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["elastic.routed_requests"] == 1
        owners_touched = len(ownership)
        assert counters["elastic.shard_requests"] == owners_touched
        granted = sorted(
            g for per_tenant in ownership.values() for g in per_tenant["default"]
        )
        assert granted == tier.group_universe([ATTR])

    def test_search_requires_start(self, loaded_post_db, rng):
        tier = ElasticTier(loaded_post_db, num_servers=2)
        with pytest.raises(ServeError):
            tier.search([ATTR], rng.standard_normal(DIM).astype(np.float32), 3)

    def test_search_after_stop_is_refused_and_keeps_membership(
        self, loaded_post_db, rng
    ):
        # A stopped tier refuses like a stopped QueryServer; it must not
        # fail every server over and empty the ring on the way.
        q = rng.standard_normal(DIM).astype(np.float32)
        tier = ElasticTier(loaded_post_db, num_servers=2, config=tier_config())
        with tier:
            tier.search([ATTR], q, 3)
        with pytest.raises(ServeError, match="not running") as excinfo:
            tier.search([ATTR], q, 3)
        assert not isinstance(excinfo.value, ElasticError)
        assert tier.ring.servers() == sorted(tier.shards)

    def test_rebalance_moves_ownership_live(self, loaded_post_db, rng):
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        with ElasticTier(db, num_servers=2, config=tier_config()) as tier:
            want_members, want_dists = direct(db, q, 5)
            tier.search([ATTR], q, 5)
            group = 0
            src = next(
                name
                for name, shard in tier.shards.items()
                if shard.owns("default", group)
            )
            dst = next(name for name in tier.shards if name != src)
            record = tier.rebalance("default", group, dst)
            assert record is not None
            assert record["from"] == src and record["to"] == dst
            assert record["drain_tid"] >= 0
            assert tier.shards[dst].owns("default", group)
            assert not tier.shards[src].owns("default", group)
            # No-op move reports None and changes nothing.
            assert tier.rebalance("default", group, dst) is None
            dmap = MapAccum()
            got = tier.search([ATTR], q, 5, distance_map=dmap)
            assert members(got) == want_members
            assert dict(dmap.items()) == want_dists
            assert tier.stats()["rebalances"] == 1

    def test_rebalance_counts_are_handoffs(self, loaded_post_db, rng):
        # First grants are not rebalances: after one search and one move,
        # only the moving pair counts, once each.
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        with ElasticTier(db, num_servers=2, config=tier_config()) as tier:
            tier.search([ATTR], q, 5)
            src = next(
                name for name, shard in tier.shards.items() if shard.owns("default", 0)
            )
            dst = next(name for name in tier.shards if name != src)
            tier.rebalance("default", 0, dst)
            stats = tier.stats()
        assert stats["rebalances"] == 1
        servers = stats["servers"]
        assert (servers[src]["rebalances_in"], servers[src]["rebalances_out"]) == (0, 1)
        assert (servers[dst]["rebalances_in"], servers[dst]["rebalances_out"]) == (1, 0)

    def test_rebalance_unknown_target_raises(self, loaded_post_db):
        with ElasticTier(loaded_post_db, num_servers=2) as tier:
            with pytest.raises(ElasticError):
                tier.rebalance("default", 0, "ghost")

    def test_rebalance_evenly_bounds_load(self, loaded_post_db, rng):
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        with ElasticTier(db, num_servers=3, config=tier_config()) as tier:
            tier.search([ATTR], q, 5)
            tier.rebalance_evenly("default", [ATTR])
            groups = tier.group_universe([ATTR])
            cap = math.ceil(len(groups) / 3)
            for shard in tier.shards.values():
                owned = shard.owned_groups("default").get("default", [])
                assert len(owned) <= cap
            want_members, _ = direct(db, q, 5)
            assert members(tier.search([ATTR], q, 5)) == want_members

    def test_crash_failover_reroutes(self, loaded_post_db, rng):
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        telemetry = Telemetry()
        with use_telemetry(telemetry), ElasticTier(
            db, num_servers=3, config=tier_config()
        ) as tier:
            want_members, _ = direct(db, q, 5)
            tier.search([ATTR], q, 5)
            victim = sorted(tier.shards)[1]
            tier.shards[victim].stop()  # hard crash: server just dies
            got = tier.search([ATTR], q, 5)
            assert members(got) == want_members
            assert victim not in tier._live_names()
            for per_tenant in tier.ownership().items():
                assert per_tenant[0] != victim
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["elastic.crash_failovers"] == 1

    def test_scale_out_and_in_migrate_keys(self, loaded_post_db, rng):
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        with ElasticTier(db, num_servers=2, config=tier_config()) as tier:
            want_members, _ = direct(db, q, 5)
            tier.search([ATTR], q, 5)
            name = tier.add_server()
            assert tier.shards[name].running
            assert members(tier.search([ATTR], q, 5)) == want_members
            removed = tier.remove_server(name)
            assert removed == name
            assert name not in tier.shards
            assert members(tier.search([ATTR], q, 5)) == want_members
            # Every key migrated off the removed server before it stopped.
            for server in tier.ownership():
                assert server != name

    def test_rebalanced_keys_stay_put_on_join(self, loaded_post_db, rng):
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        with ElasticTier(db, num_servers=2, config=tier_config()) as tier:
            want_members, _ = direct(db, q, 5)
            tier.search([ATTR], q, 5)
            groups = tier.group_universe([ATTR])
            moved = {}
            for group in groups[::2]:
                owner = tier.ring.owner("default", group)
                target = next(name for name in sorted(tier.shards) if name != owner)
                assert tier.rebalance("default", group, target) is not None
                moved[group] = target
            joiner = tier.add_server()
            placed = {
                group: server
                for server, per_tenant in tier.ownership().items()
                for group in per_tenant["default"]
            }
            for group in groups:
                # Rebalanced keys stay on their targets; the rest follow
                # the ring, which now includes the joiner.
                want = moved.get(group) or tier.ring.owner("default", group)
                assert placed[group] == want
                assert tier.shards[want].owns("default", group)
            assert joiner in tier.ring.servers()
            assert members(tier.search([ATTR], q, 5)) == want_members

    def test_key_returns_to_ring_owner_when_its_target_leaves(
        self, loaded_post_db, rng
    ):
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        tenants = [Tenant(f"t{i}") for i in range(6)]
        with ElasticTier(
            db, num_servers=3, config=tier_config(), tenants=tenants
        ) as tier:
            want_members, _ = direct(db, q, 5)
            groups = tier.group_universe([ATTR])
            for tenant in tenants:
                tier.search([ATTR], q, 5, tenant=tenant.name)
            live = tier.ring.servers()
            joiner = f"shard-{len(live)}"  # the name add_server gives next

            def ring_of(names):
                ring = ConsistentHashRing()
                for name in names:
                    ring.add(name)
                return ring

            # A key whose target leaves, and which the next joiner's arc
            # then captures, so the join moves it again.
            tenant, group, target = next(
                (tenant.name, group, target)
                for tenant in tenants
                for group in groups
                for target in live
                if target != tier.ring.owner(tenant.name, group)
                and ring_of([s for s in live if s != target] + [joiner]).owner(
                    tenant.name, group
                )
                == joiner
            )
            home = tier.ring.owner(tenant, group)
            tier.rebalance(tenant, group, target)
            tier.remove_server(target)
            assert group in tier.ownership()[home][tenant]
            assert tier.shards[home].owns(tenant, group)
            assert tier.add_server() == joiner
            assert group in tier.ownership()[joiner][tenant]
            assert tier.shards[joiner].owns(tenant, group)
            assert not tier.shards[home].owns(tenant, group)
            assert members(tier.search([ATTR], q, 5, tenant=tenant)) == want_members

    def test_remove_last_server_refused(self, loaded_post_db):
        with ElasticTier(loaded_post_db, num_servers=1) as tier:
            with pytest.raises(ElasticError):
                tier.remove_server()

    def test_stats_shape(self, loaded_post_db, rng):
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        with use_telemetry(Telemetry()), ElasticTier(
            db, num_servers=2, config=tier_config()
        ) as tier:
            tier.search([ATTR], q, 5)
            stats = tier.stats()
        assert set(stats["servers"]) == {"shard-0", "shard-1"}
        for srv in stats["servers"].values():
            assert {"running", "owned", "rebalances_in", "rebalances_out",
                    "queue_depth", "workers_alive", "cache_hit_ratio",
                    "cache_entries"} <= set(srv)
        assert stats["routed_requests"] >= 1
        assert stats["rebalances"] == 0 and stats["rebalance_log"] == []

    def test_router_counters_are_none_without_telemetry(self, loaded_post_db, rng):
        # Nothing counts them with telemetry off: a 0 would read as "no
        # traffic" after five routed searches.
        db = loaded_post_db
        with ElasticTier(db, num_servers=2, config=tier_config()) as tier:
            for _ in range(5):
                tier.search([ATTR], rng.standard_normal(DIM).astype(np.float32), 5)
            stats = tier.stats()
        for key in ("routed_requests", "route_retries", "crash_failovers",
                    "cache_coherence_bypass"):
            assert stats[key] is None, key


class TestReplicaCoherence:
    def test_partial_cache_hits_on_repeat(self, loaded_post_db, rng):
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        telemetry = Telemetry()
        with use_telemetry(telemetry), ElasticTier(
            db, num_servers=2, config=tier_config()
        ) as tier:
            first = members(tier.search([ATTR], q, 5))
            second = members(tier.search([ATTR], q, 5))
        assert first == second
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serve.cache_hits"] >= 1

    def test_commit_invalidates_every_replica(self, loaded_post_db, rng):
        """The replica-coherence contract: after a commit advances the
        watermark vector, no replica may serve a pre-commit cached
        partial — the post-commit nearest neighbor must appear."""
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        with ElasticTier(db, num_servers=3, config=tier_config()) as tier:
            before = members(tier.search([ATTR], q, 5))
            # Warm every replica's partial cache.
            assert members(tier.search([ATTR], q, 5)) == before
            with db.begin() as txn:
                txn.upsert_vertex("Post", 9000, {"language": "en", "length": 1})
                txn.set_embedding("Post", 9000, "content_emb", q)  # exact hit
            got = members(tier.search([ATTR], q, 5))
            assert ("Post", db.vid_for("Post", 9000)) in got
            want_members, _ = direct(db, q, 5)
            assert got == want_members

    def test_sla_answers_are_fresh_across_replicas(self, loaded_post_db, rng):
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        with ElasticTier(db, num_servers=2, config=tier_config()) as tier:
            with db.begin() as txn:
                txn.upsert_vertex("Post", 9001, {"language": "fr", "length": 2})
                txn.set_embedding("Post", 9001, "content_emb", q)
            with db.snapshot() as snapshot:
                token = snapshot.tid
            got = members(
                tier.search([ATTR], q, 5, max_staleness=0, session_token=token)
            )
            assert ("Post", db.vid_for("Post", 9001)) in got

    def test_invalid_sla_arguments_rejected_at_once(self, loaded_post_db, rng):
        """The router enforces the server's SLA-argument contract: a bad
        bound is an immediate ServeError — not a staleness wait that ends
        in StalenessBoundError, and not a served answer."""
        from repro.errors import StalenessBoundError

        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        config = ServeConfig(workers=2, enable_batching=False, staleness_wait=0.2)
        with ElasticTier(db, num_servers=2, config=config) as tier:
            for bad in (
                {"max_staleness": -1},
                {"session_token": -5},
                {"max_staleness": 1.5},
                {"session_token": True},
            ):
                with pytest.raises(ServeError) as excinfo:
                    tier.search([ATTR], q, 5, timeout=10.0, **bad)
                assert not isinstance(excinfo.value, StalenessBoundError)


# --------------------------------------------------------------------------
# simulated scaling smoke (the full curve lives in the benchmark)
# --------------------------------------------------------------------------


class TestSimulatedScaling:
    def test_placement_balanced(self):
        sim = SimulatedElasticServe(num_servers=4, num_segments=32)
        counts = sim.segment_counts()
        assert sum(counts) == 32
        assert max(counts) - min(counts) <= 1

    def test_two_servers_nearly_double_qps(self):
        one = SimulatedElasticServe(num_servers=1, num_segments=32)
        two = SimulatedElasticServe(num_servers=2, num_segments=32)
        qps1 = one.run_open_loop(duration_seconds=1.0, target_qps=400.0).qps
        qps2 = two.run_open_loop(duration_seconds=1.0, target_qps=400.0).qps
        assert qps2 >= 1.7 * qps1


# --------------------------------------------------------------------------
# EDF dequeue within a tenant (satellite 1)
# --------------------------------------------------------------------------


@dataclass
class _Req:
    """Queue item shaped like a QueryRequest for scheduling purposes."""

    tag: int
    deadline: float | None = None


class TestDeadlineOrderedDequeue:
    def test_edf_within_tenant(self):
        queue = WeightedFairQueue(TenantRegistry())
        queue.put(_Req(0, deadline=30.0), "default")
        queue.put(_Req(1, deadline=10.0), "default")
        queue.put(_Req(2, deadline=20.0), "default")
        order = [queue.take(timeout=1).tag for _ in range(3)]
        assert order == [1, 2, 0]

    def test_no_deadline_stays_fifo(self):
        queue = WeightedFairQueue(TenantRegistry())
        for tag in range(4):
            queue.put(_Req(tag), "default")
        assert [queue.take(timeout=1).tag for _ in range(4)] == [0, 1, 2, 3]

    def test_deadline_bearing_preempts_unbounded(self):
        queue = WeightedFairQueue(TenantRegistry())
        queue.put(_Req(0), "default")
        queue.put(_Req(1, deadline=5.0), "default")
        assert queue.take(timeout=1).tag == 1

    def test_reorders_counted(self):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            queue = WeightedFairQueue(TenantRegistry())
            queue.put(_Req(0, deadline=99.0), "default")
            queue.put(_Req(1, deadline=1.0), "default")
            assert queue.take(timeout=1).tag == 1  # overtook request 0
            assert queue.take(timeout=1).tag == 0  # oldest left: no reorder
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serve.deadline_reorders"] == 1

    def test_cross_tenant_fairness_untouched(self):
        registry = TenantRegistry(
            [Tenant("heavy", weight=2.0), Tenant("light", weight=1.0)]
        )
        queue = WeightedFairQueue(registry)
        for tag in range(6):
            queue.put(_Req(tag, deadline=float(100 - tag)), "heavy")
        for tag in range(6):
            queue.put(_Req(100 + tag), "light")
        drained = [queue.take(timeout=1) for _ in range(12)]
        heavy = [r.tag for r in drained if r.tag < 100]
        light = [r.tag for r in drained if r.tag >= 100]
        # Stride fairness: a 2:1 weight split drains ~2 heavy per light.
        first_nine = drained[:9]
        assert sum(1 for r in first_nine if r.tag < 100) == 6
        # Within heavy, EDF order (descending tag = ascending deadline).
        assert heavy == [5, 4, 3, 2, 1, 0]
        assert light == [100, 101, 102, 103, 104, 105]

    def test_fewer_deadline_misses_at_equal_throughput(self):
        """The satellite's regression: with all requests queued and unit
        service time, EDF dequeue meets every deadline the permutation
        allows while arrival-order FIFO misses many — at identical
        throughput (same requests, same service rate)."""
        service_time = 1.0
        count = 40
        rng = np.random.default_rng(7)
        deadlines = rng.permutation(count) + 1.0  # a shuffled 1..N
        requests = [
            _Req(tag, deadline=float(deadlines[tag])) for tag in range(count)
        ]
        queue = WeightedFairQueue(TenantRegistry())
        for request in requests:
            queue.put(request, "default")
        edf_order = [queue.take(timeout=1) for _ in range(count)]
        assert {r.tag for r in edf_order} == set(range(count))

        def misses(order):
            now, missed = 0.0, 0
            for request in order:
                now += service_time
                if now > request.deadline:
                    missed += 1
            return missed

        fifo_misses = misses(requests)
        edf_misses = misses(edf_order)
        assert edf_misses == 0  # deadlines are a permutation: EDF fits all
        assert fifo_misses > 0
        assert len(edf_order) == len(requests)  # equal throughput


# --------------------------------------------------------------------------
# shard server contracts
# --------------------------------------------------------------------------


class TestShardServer:
    def test_ownership_check_fails_typed(self, loaded_post_db, rng):
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        shard = ShardServer(db, "lonely", config=tier_config())
        shard.grant("default", 0)
        with shard:
            with db.snapshot() as snapshot:
                future = shard.submit_shard(
                    SearchSpec(db.service, [ATTR], q, 5), snapshot=snapshot, groups=[0, 1]
                )
                error = future.exception(timeout=10)
        assert isinstance(error, SegmentOwnershipError)
        assert error.group == 1

    def test_partial_over_owned_groups(self, loaded_post_db, rng):
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        shard = ShardServer(db, "solo", config=tier_config())
        num_groups = db.service.store("Post", "content_emb").num_segments
        for group in range(num_groups):
            shard.grant("default", group)
        with shard:
            with db.snapshot() as snapshot:
                future = shard.submit_shard(
                    SearchSpec(db.service, [ATTR], q, 5),
                    snapshot=snapshot, groups=range(num_groups),
                )
                parts = future.result(timeout=10)
        assert merge_sharded_topk([list(parts)], 5) == merged_triples(db, q, 5)

    def test_grant_revoke_counted(self, loaded_post_db):
        shard = ShardServer(loaded_post_db, "s")
        shard.grant("default", 0)
        shard.grant("default", 0)  # idempotent: owned once
        assert shard.owned_groups() == {"default": [0]}
        shard.revoke("default", 0)
        shard.revoke("default", 0)
        assert shard.owned_groups() == {}
        assert not shard.owns("default", 0)


# --------------------------------------------------------------------------
# the shard seam
# --------------------------------------------------------------------------


class _CallerThreadTransport:
    """A shard transport that is not a ``ShardServer``: an owned set, and a
    ``submit_shard`` that runs ``vector_search_parts`` on the calling thread
    and returns a completed future.  The router must need nothing else."""

    def __init__(self, db, name, *, config, tenants, injector):
        self.db = db
        self.name = name
        self.owned: set[tuple[str, int]] = set()
        self.running = False

    def submit_shard(
        self, spec, *, tenant, prefilter, snapshot, watermarks, cache_ok, groups, deadline
    ):
        future = ServeFuture()
        missing = [g for g in groups if (tenant, g) not in self.owned]
        if missing:
            future._fail(SegmentOwnershipError(
                f"{self.name} does not own group {missing[0]}",
                tenant=tenant, group=missing[0],
            ))
            return future
        parts, _ = vector_search_parts(
            self.db.service, snapshot, spec, prefilter, groups=frozenset(groups)
        )
        future._complete(tuple(parts))
        return future

    def grant(self, tenant, group):
        self.owned.add((tenant, group))

    def revoke(self, tenant, group):
        self.owned.discard((tenant, group))

    def start(self):
        self.running = True
        return self

    def stop(self):
        self.running = False

    def stats(self):
        owned: dict[str, list[int]] = {}
        for tenant, group in sorted(self.owned):
            owned.setdefault(tenant, []).append(group)
        return {"running": self.running, "owned": owned, "queue_depth": 0}


class TestShardTransportSeam:
    def test_tier_on_a_foreign_transport_matches_direct(self, loaded_post_db, rng):
        db = loaded_post_db
        queries = rng.standard_normal((4, DIM)).astype(np.float32)
        with ElasticTier(db, num_servers=2, transport=_CallerThreadTransport) as tier:
            assert not any(isinstance(s, ShardServer) for s in tier.shards.values())

            def assert_direct():
                for q in queries:
                    dmap = MapAccum()
                    got = tier.search([ATTR], q, 5, distance_map=dmap)
                    want_members, want_dists = direct(db, q, 5)
                    assert members(got) == want_members
                    assert dict(dmap.items()) == want_dists

            assert_direct()
            src = next(n for n, s in tier.shards.items() if ("default", 0) in s.owned)
            dst = next(name for name in tier.shards if name != src)
            assert tier.rebalance("default", 0, dst) is not None
            assert ("default", 0) in tier.shards[dst].owned
            assert ("default", 0) not in tier.shards[src].owned
            assert_direct()
            assert tier.stats()["servers"][dst]["rebalances_in"] == 1
