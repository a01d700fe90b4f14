"""Serve-tier chaos tests: injected worker crashes, stalls, poisoned batches.

The chaos matrix for the serving layer (ISSUE 7): with a
:class:`~repro.faults.FaultInjector` attached to a :class:`QueryServer`,

- a worker crash mid-query re-queues the in-flight batch (bounded by
  ``RETRY_BUDGET``) and respawns a replacement — requests are delayed,
  never lost;
- a stalled worker delays its own batch while the rest of the pool keeps
  draining;
- a fused batch poisoned by an injected segment fault degrades to
  per-query execution instead of failing every rider;
- under a combined fault schedule every request resolves with a result or
  a typed error, and every successful answer matches the direct search
  path — zero lost, zero silently-stale.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import FaultInjectionError, ReproError
from repro.faults import RETRY_BUDGET, FaultInjector, FaultPlan
from repro.serve import QueryServer, ServeConfig
from repro.serve.server import MIN_FUSED
from repro.telemetry import Telemetry, use_telemetry

ATTR = "Post.content_emb"
DIM = 16


def members(vset):
    return sorted(vset)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestWorkerCrash:
    def test_crashed_worker_batch_requeued_not_lost(self, loaded_post_db, rng):
        db = loaded_post_db
        injector = FaultInjector(FaultPlan().crash_worker(1))
        config = ServeConfig(workers=2, enable_batching=False, enable_cache=False)
        queries = rng.standard_normal((8, DIM)).astype(np.float32)
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config, injector=injector) as server:
            futures = [server.submit_search([ATTR], q, 3) for q in queries]
            results = [f.result(timeout=30) for f in futures]
        for q, got in zip(queries, results):
            assert members(got) == members(db.vector_search([ATTR], q, 3))
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serve.worker_crashes"] == 1
        assert counters["serve.worker_respawns"] == 1
        assert counters["serve.worker_requeues"] >= 1
        assert any(event.kind == "worker-crash" for event in injector.trace)

    def test_repeated_crashes_exhaust_retry_budget_typed(self, loaded_post_db, rng):
        """A request that has been through ``RETRY_BUDGET`` crashed workers
        fails with a typed error instead of cycling forever."""
        db = loaded_post_db
        plan = FaultPlan()
        for ordinal in range(1, RETRY_BUDGET + 1):  # the lone request, each time
            plan.crash_worker(ordinal)
        injector = FaultInjector(plan)
        config = ServeConfig(workers=1, enable_batching=False, enable_cache=False)
        q = rng.standard_normal(DIM).astype(np.float32)
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config, injector=injector) as server:
            future = server.submit_search([ATTR], q, 3)
            with pytest.raises(FaultInjectionError, match="retry budget"):
                future.result(timeout=30)
            # The respawned worker still serves fresh traffic.
            ok = server.search([ATTR], q, 3)
            assert members(ok) == members(db.vector_search([ATTR], q, 3))
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serve.worker_crashes"] == RETRY_BUDGET
        assert counters["serve.worker_requeues"] == RETRY_BUDGET - 1
        assert counters["serve.completed"] == 2  # typed failure + success


class TestWorkerStall:
    def test_straggler_delays_one_batch_pool_keeps_draining(
        self, loaded_post_db, rng
    ):
        db = loaded_post_db
        injector = FaultInjector(FaultPlan().stall_worker(1, seconds=0.3))
        config = ServeConfig(workers=2, enable_batching=False, enable_cache=False)
        queries = rng.standard_normal((6, DIM)).astype(np.float32)
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config, injector=injector) as server:
            futures = [server.submit_search([ATTR], q, 3) for q in queries]
            results = [f.result(timeout=30) for f in futures]
        for q, got in zip(queries, results):
            assert members(got) == members(db.vector_search([ATTR], q, 3))
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serve.worker_stalls"] == 1
        assert counters["serve.completed"] == len(queries)
        assert any(event.kind == "worker-stall" for event in injector.trace)


class TestBatchPoison:
    def test_poisoned_fused_batch_degrades_to_per_query(self, loaded_post_db, rng):
        """An injected segment fault inside the fused scan must not fail
        every rider: once the fused scan has spent its ``RETRY_BUDGET``
        tries, the batch degrades to per-query execution on the same
        snapshot, the singles run after the planned failures are consumed,
        and every answer matches the direct path."""
        db = loaded_post_db
        injector = FaultInjector(FaultPlan().fail_segment(0, failures=RETRY_BUDGET))
        injector.install_store(db.service.store("Post", "content_emb"))
        config = ServeConfig(
            workers=1,
            enable_batching=True,
            enable_cache=False,
            batch_window_seconds=0.2,
            max_batch=8,
        )
        queries = rng.standard_normal((2 * MIN_FUSED, DIM)).astype(np.float32)
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config, injector=injector) as server:
            futures = [server.submit_search([ATTR], q, 5) for q in queries]
            results = [f.result(timeout=30) for f in futures]
        for q, got in zip(queries, results):
            assert members(got) == members(db.vector_search([ATTR], q, 5))
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serve.batch_poison_degrades"] == 1
        assert counters["resilience.retries"] == RETRY_BUDGET - 1
        assert counters["serve.completed"] == len(queries)
        assert any(event.kind == "segment-fault" for event in injector.trace)

    def test_retry_budget_absorbs_poison_without_degrade(self, loaded_post_db, rng):
        """With retries available, the fused path recovers in-kernel and
        the degrade path is never taken."""
        db = loaded_post_db
        injector = FaultInjector(FaultPlan().fail_segment(0, failures=1))
        injector.install_store(db.service.store("Post", "content_emb"))
        config = ServeConfig(
            workers=1,
            enable_batching=True,
            enable_cache=False,
            batch_window_seconds=0.2,
            max_batch=8,
        )
        queries = rng.standard_normal((2 * MIN_FUSED, DIM)).astype(np.float32)
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config, injector=injector) as server:
            futures = [server.submit_search([ATTR], q, 5) for q in queries]
            for f in futures:
                assert f.exception(timeout=30) is None
        counters = telemetry.registry.snapshot()["counters"]
        assert counters.get("serve.batch_poison_degrades", 0) == 0
        assert counters.get("resilience.retries", 0) >= 1


class TestChaosSweep:
    def test_combined_faults_zero_lost_zero_stale(self, loaded_post_db, rng):
        """The serve-tier chaos matrix: crashes + stalls + segment faults
        at once.  Every submitted request resolves (result or typed error),
        and every successful answer — including staleness-bounded ones —
        matches the direct search path on this static dataset."""
        db = loaded_post_db
        plan = (
            FaultPlan()
            .crash_worker(2)
            .stall_worker(3, seconds=0.05)
            .fail_segment(1, failures=2)
        )
        injector = FaultInjector(plan)
        injector.install_store(db.service.store("Post", "content_emb"))
        config = ServeConfig(
            workers=3,
            enable_batching=True,
            enable_cache=True,
            batch_window_seconds=0.002,
        )
        queries = rng.standard_normal((24, DIM)).astype(np.float32)
        outcomes: list[tuple[int, object]] = []
        lock = threading.Lock()

        def fire(index: int, server: QueryServer) -> None:
            kwargs = {"max_staleness": 0} if index % 3 == 0 else {}
            try:
                got = server.search([ATTR], queries[index], 5, **kwargs)
            except ReproError as exc:
                with lock:
                    outcomes.append((index, exc))
                return
            with lock:
                outcomes.append((index, got))

        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config, injector=injector) as server:
            threads = [
                threading.Thread(target=fire, args=(i, server))
                for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), "a request hung"
        assert len(outcomes) == len(queries), "a request was lost"
        successes = 0
        for index, outcome in outcomes:
            if isinstance(outcome, ReproError):
                continue  # typed failure: visible, accounted, acceptable
            successes += 1
            want = members(db.vector_search([ATTR], queries[index], 5))
            assert members(outcome) == want, f"stale/wrong answer for {index}"
        assert successes > 0, "chaos schedule starved every request"
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serve.worker_crashes"] >= 1
        assert counters["serve.completed"] >= successes
