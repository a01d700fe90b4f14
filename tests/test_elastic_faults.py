"""Elastic-tier chaos tests: live rebalances and server crashes under load.

The acceptance bar for the elastic PR (ISSUE 9): with client threads
hammering an :class:`ElasticTier`, a mid-run rebalance AND a hard server
crash must produce **zero failed queries** — the router re-routes lost
sub-requests to the surviving owners, bounded by ``_MAX_ROUTE_ROUNDS`` —
and **zero silently-stale SLA responses**: every ``max_staleness=0`` /
``session_token`` answer reflects the bound it promised or fails typed,
regardless of which replicas served the partials.

Worker-level fault injection (crashes/stalls inside one shard's pool)
composes with routing because each shard is a full ``QueryServer``; the
injected-fault sweep asserts the combined machinery still loses nothing.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.elastic import ElasticTier
from repro.errors import QueryTimeoutError, ReproError, StalenessBoundError
from repro.faults import FaultInjector, FaultPlan
from repro.serve import ServeConfig
from repro.telemetry import Telemetry, use_telemetry

ATTR = "Post.content_emb"
DIM = 16


def members(vset):
    return sorted(vset)


def chaos_config():
    return ServeConfig(workers=2, enable_batching=False, enable_cache=True)


class TestRebalanceUnderLoad:
    def test_continuous_rebalancing_zero_failures(self, loaded_post_db, rng):
        """Queries race a mover thread that bounces a group between servers;
        every query must succeed and match the direct path exactly."""
        db = loaded_post_db
        queries = rng.standard_normal((30, DIM)).astype(np.float32)
        want = [members(db.vector_search([ATTR], q, 5)) for q in queries]
        outcomes: dict[int, object] = {}
        lock = threading.Lock()
        telemetry = Telemetry()

        def fire(index: int, tier: ElasticTier) -> None:
            try:
                got = members(tier.search([ATTR], queries[index], 5))
            except ReproError as exc:  # pragma: no cover - the failure mode
                got = exc
            with lock:
                outcomes[index] = got

        with use_telemetry(telemetry), ElasticTier(
            db, num_servers=3, config=chaos_config()
        ) as tier:
            tier.search([ATTR], queries[0], 5)  # materialize ownership
            stop_moving = threading.Event()

            def mover() -> None:
                servers = sorted(tier.shards)
                flip = 0
                while not stop_moving.is_set():
                    tier.rebalance("default", 0, servers[flip % len(servers)])
                    tier.rebalance("default", 1, servers[(flip + 1) % len(servers)])
                    flip += 1

            mover_thread = threading.Thread(target=mover)
            mover_thread.start()
            threads = [
                threading.Thread(target=fire, args=(i, tier))
                for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            stop_moving.set()
            mover_thread.join(timeout=60)
            assert not any(t.is_alive() for t in threads), "a query hung"

        assert len(outcomes) == len(queries), "a query was lost"
        for index, got in sorted(outcomes.items()):
            assert not isinstance(got, ReproError), f"query {index} failed: {got}"
            assert got == want[index], f"wrong answer for query {index}"
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["elastic.rebalances"] >= 2
        assert counters.get("elastic.crash_failovers", 0) == 0

    def test_rebalance_plus_crash_zero_failures(self, loaded_post_db, rng):
        """The headline chaos scenario: a live rebalance AND a hard server
        crash mid-run.  Zero failed queries; SLA answers stay fresh."""
        db = loaded_post_db
        queries = rng.standard_normal((36, DIM)).astype(np.float32)
        want = [members(db.vector_search([ATTR], q, 5)) for q in queries]
        outcomes: dict[int, object] = {}
        lock = threading.Lock()
        telemetry = Telemetry()
        started = threading.Event()

        def fire(index: int, tier: ElasticTier) -> None:
            started.set()
            # Every third query carries the freshness SLA: answered fresh
            # across whatever replicas survive, or failed typed.
            kwargs = {"max_staleness": 0} if index % 3 == 0 else {}
            try:
                got = members(tier.search([ATTR], queries[index], 5, **kwargs))
            except ReproError as exc:  # pragma: no cover - the failure mode
                got = exc
            with lock:
                outcomes[index] = got

        with use_telemetry(telemetry), ElasticTier(
            db, num_servers=4, config=chaos_config()
        ) as tier:
            tier.search([ATTR], queries[0], 5)  # materialize ownership
            threads = [
                threading.Thread(target=fire, args=(i, tier))
                for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            started.wait(timeout=10)
            # Mid-run: move a group live, then hard-crash a server that
            # still owns keys.  The router must absorb both.
            victims = sorted(tier.shards)
            tier.rebalance("default", 0, victims[-1])
            tier.shards[victims[1]].stop()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), "a query hung"
            post_crash = members(tier.search([ATTR], queries[1], 5))

        assert len(outcomes) == len(queries), "a query was lost"
        for index, got in sorted(outcomes.items()):
            assert not isinstance(got, ReproError), f"query {index} failed: {got}"
            # Static dataset: a "fresh" SLA answer and a plain answer both
            # have exactly one correct value — any drift would be a
            # silently-stale (or silently-partial) response.
            assert got == want[index], f"wrong/stale answer for query {index}"
        assert post_crash == want[1]
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["elastic.rebalances"] >= 1
        assert counters["elastic.crash_failovers"] >= 1
        assert counters.get("serve.staleness_rejections", 0) == 0

    def test_session_token_honored_across_replicas_under_moves(
        self, loaded_post_db, rng
    ):
        """Writers commit; readers demand their own writes via session
        tokens while groups move.  An answer below the token would be a
        silently-stale response — none may occur."""
        db = loaded_post_db
        telemetry = Telemetry()
        failures: list[str] = []
        lock = threading.Lock()
        stop_moving = threading.Event()

        def reader(worker: int, tier: ElasticTier) -> None:
            for round_no in range(4):
                pk = 9100 + worker * 10 + round_no
                vec = rng.standard_normal(DIM).astype(np.float32) * 0.001
                with db.begin() as txn:
                    txn.upsert_vertex("Post", pk, {"language": "en", "length": 1})
                    txn.set_embedding("Post", pk, "content_emb", vec)
                with db.snapshot() as snapshot:
                    token = snapshot.tid
                try:
                    got = members(
                        tier.search([ATTR], vec, 5, session_token=token)
                    )
                except StalenessBoundError:
                    continue  # typed refusal: visible, never silently stale
                except ReproError as exc:  # pragma: no cover
                    with lock:
                        failures.append(f"reader {worker}: {exc}")
                    return
                if ("Post", db.vid_for("Post", pk)) not in got:
                    with lock:
                        failures.append(
                            f"reader {worker} round {round_no}: own write "
                            f"missing at token {token}"
                        )

        with use_telemetry(telemetry), ElasticTier(
            db, num_servers=3, config=chaos_config()
        ) as tier:
            tier.search([ATTR], np.zeros(DIM, dtype=np.float32), 5)

            def mover() -> None:
                servers = sorted(tier.shards)
                flip = 0
                while not stop_moving.is_set():
                    tier.rebalance("default", flip % 2, servers[flip % len(servers)])
                    flip += 1
                    time.sleep(0.001)

            mover_thread = threading.Thread(target=mover)
            mover_thread.start()
            threads = [
                threading.Thread(target=reader, args=(i, tier)) for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stop_moving.set()
            mover_thread.join(timeout=60)
            assert not any(t.is_alive() for t in threads), "a reader hung"
        assert failures == []


class TestInjectedWorkerFaults:
    def test_worker_crashes_inside_shards_not_lost(self, loaded_post_db, rng):
        """Per-shard fault injection composes with routing: crashed shard
        workers respawn and re-queue, so routed queries still all succeed."""
        db = loaded_post_db
        queries = rng.standard_normal((12, DIM)).astype(np.float32)
        want = [members(db.vector_search([ATTR], q, 5)) for q in queries]
        injectors = {
            "shard-0": FaultInjector(FaultPlan().crash_worker(1)),
            "shard-1": FaultInjector(FaultPlan().stall_worker(2, seconds=0.02)),
        }
        telemetry = Telemetry()
        with use_telemetry(telemetry), ElasticTier(
            db,
            num_servers=2,
            config=chaos_config(),
            injectors=injectors,
        ) as tier:
            got = [members(tier.search([ATTR], q, 5)) for q in queries]
        assert got == want
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serve.worker_crashes"] >= 1
        assert counters["serve.worker_respawns"] >= 1

    def test_default_timeout_sheds_stalled_shards(self, loaded_post_db, rng):
        """With no per-call timeout, ``ServeConfig.default_timeout`` bounds a
        routed query, as it does a ``QueryServer`` request: stalled shard
        workers shed it typed."""
        db = loaded_post_db
        q = rng.standard_normal(DIM).astype(np.float32)
        injectors = {
            f"shard-{i}": FaultInjector(FaultPlan().stall_worker(1, seconds=0.3))
            for i in range(2)
        }
        with ElasticTier(
            db,
            num_servers=2,
            config=ServeConfig(
                workers=2, enable_batching=False, default_timeout=0.05
            ),
            injectors=injectors,
        ) as tier:
            started = time.monotonic()
            with pytest.raises(QueryTimeoutError):
                tier.search([ATTR], q, 5)
        assert time.monotonic() - started < 5.0
