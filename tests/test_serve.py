"""Tests for repro.serve: the concurrent query-serving layer.

Covers the acceptance contracts from the serving PR:

- byte identity: server answers with batching+caching off match direct
  ``TigerVectorDB.vector_search`` calls exactly (members and distances);
- micro-batched (fused) answers match direct calls too;
- snapshot-keyed cache: hits on repeat, invalidation on commit and vacuum;
- admission control: queue-full / rate-limit / deadline shed with typed
  errors and MetricsRegistry-visible counts — never a hang or a drop;
- tenancy: weighted-fair queueing, RBAC-scoped search, read-only GSQL;
- satellites: open-loop load generation.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.cluster import ClosedLoopLoadGenerator, ClusterSimulator, make_cluster
from repro.core import search as search_module
from repro.core.search import SearchSpec, vector_search_batch
from repro.errors import (
    AdmissionRejectedError,
    DimensionMismatchError,
    GSQLSemanticError,
    QueryTimeoutError,
    RateLimitedError,
    ReproError,
    ServeError,
    StalenessBoundError,
    UnknownTypeError,
    VectorSearchError,
)
from repro.graph.accumulators import MapAccum
from repro.serve import (
    MicroBatcher,
    QueryServer,
    ResultCache,
    ServeConfig,
    ServeFuture,
    ServeResultCache,
    Tenant,
    TenantRegistry,
    TokenBucket,
    WeightedFairQueue,
)
from repro.telemetry import Telemetry, use_telemetry
from repro.types import Metric, batch_distances_multi


def members(vset):
    return sorted(vset)


def distances(db, vector_attributes, query, k, ef=None):
    """Direct-path (vertex, distance) pairs for comparison."""
    dmap = MapAccum()
    vset = db.vector_search(vector_attributes, query, k, distance_map=dmap, ef=ef)
    return members(vset), dict(dmap.items())


# --------------------------------------------------------------------------
# byte identity & batching
# --------------------------------------------------------------------------


class TestByteIdentity:
    def test_passthrough_matches_direct(self, loaded_post_db, rng):
        db = loaded_post_db
        config = ServeConfig(workers=2, enable_batching=False, enable_cache=False)
        queries = rng.standard_normal((10, 16)).astype(np.float32)
        with QueryServer(db, config) as server:
            for q in queries:
                dmap = MapAccum()
                got = server.search(["Post.content_emb"], q, 5, distance_map=dmap)
                want_members, want_dists = distances(db, ["Post.content_emb"], q, 5)
                assert members(got) == want_members
                assert dict(dmap.items()) == want_dists

    def test_fused_batch_matches_direct(self, loaded_post_db, rng):
        db = loaded_post_db
        config = ServeConfig(
            workers=1,
            enable_batching=True,
            enable_cache=False,
            batch_window_seconds=0.02,
        )
        queries = rng.standard_normal((24, 16)).astype(np.float32)
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config) as server:
            futures = [
                server.submit_search(["Post.content_emb"], q, 5) for q in queries
            ]
            results = [f.result(timeout=30) for f in futures]
        for q, got in zip(queries, results):
            assert members(got) == distances(db, ["Post.content_emb"], q, 5)[0]
        counters = telemetry.registry.snapshot()["counters"]
        assert counters.get("serve.fused_queries", 0) > 0

    def test_explicit_ef_requests_are_not_batched(self, loaded_post_db, rng):
        """An explicit ef is an HNSW accuracy contract only a per-query
        traversal honours, and traversals share no work: such requests have
        no batch key, run at once as singles, and equal the direct path
        exactly (members AND distances).
        """
        db = loaded_post_db
        config = ServeConfig(
            workers=1,
            enable_batching=True,
            enable_cache=True,
            batch_window_seconds=0.5,
        )
        queries = rng.standard_normal((8, 16)).astype(np.float32)
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config) as server:
            started = time.monotonic()
            server.search(["Post.content_emb"], queries[0], 5, ef=64, no_cache=True)
            lone_seconds = time.monotonic() - started
            dmaps = [MapAccum() for _ in queries]
            futures = [
                server.submit_search(
                    ["Post.content_emb"], q, 5, ef=64, distance_map=dmap
                )
                for q, dmap in zip(queries, dmaps)
            ]
            results = [f.result(timeout=30) for f in futures]
            stats = server.cache.stats()
        assert lone_seconds < 0.1, "an explicit-ef request must not wait out the window"
        for q, got, dmap in zip(queries, results, dmaps):
            want_members, want_dists = distances(db, ["Post.content_emb"], q, 5, ef=64)
            assert members(got) == want_members
            assert dict(dmap.items()) == want_dists
        counters = telemetry.registry.snapshot()["counters"]
        assert counters.get("serve.fused_queries", 0) == 0
        assert stats["kernels"] == {"hnsw": len(queries)}

    def test_db_vector_search_batch_equals_per_query(self, loaded_post_db, rng):
        db = loaded_post_db
        queries = rng.standard_normal((8, 16)).astype(np.float32)
        fused = db.vector_search_batch(["Post.content_emb"], queries, 5)
        for q, got in zip(queries, fused):
            assert members(got) == members(db.vector_search(["Post.content_emb"], q, 5))

    def test_fused_matches_after_writes_and_vacuum(self, loaded_post_db, rng):
        """A batch equals the solo path in members, over the delta overlay
        and after vacuum."""
        db = loaded_post_db
        fresh = rng.standard_normal((20, 16))
        with db.begin() as txn:
            for i, vector in zip(range(200, 220), fresh):
                txn.upsert_vertex("Post", i, {"language": "en", "length": i})
                txn.set_embedding("Post", i, "content_emb", vector)
        queries = rng.standard_normal((6, 16)).astype(np.float32)
        queries[0] = fresh[10]  # its nearest row is in the overlay until vacuum
        for state in ("overlay", "vacuumed"):
            with db.snapshot() as snap:
                specs = [SearchSpec(db.service, ["Post.content_emb"], q, 7) for q in queries]
                tops = vector_search_batch(db.service, snap, specs)
            assert tops[0][0][2] == db.vid_for("Post", 210), state
            for q, top in zip(queries, tops):
                want_members, _ = distances(db, ["Post.content_emb"], q, 7)
                assert sorted((vt, vid) for _, vt, vid in top) == want_members
            db.vacuum()

    def test_batch_distances_multi_validates(self, rng):
        good = rng.standard_normal((3, 4)).astype(np.float32)
        out = batch_distances_multi(good, good, Metric.L2)
        assert out.shape == (3, 3)
        with pytest.raises(VectorSearchError):
            batch_distances_multi(good[0], good, Metric.L2)
        with pytest.raises(VectorSearchError):
            batch_distances_multi(good, good[:, :2], Metric.L2)


# --------------------------------------------------------------------------
# the door: one resolution per catalog version, a latch per request
# --------------------------------------------------------------------------


@pytest.fixture
def resolve_calls(monkeypatch):
    """Count the resolutions ``resolve_search`` computes (not memo reads)."""
    calls = []
    real = search_module.check_compatible

    def counting(pairs):
        calls.append([name for name, _ in pairs])
        return real(pairs)

    monkeypatch.setattr(search_module, "check_compatible", counting)
    return calls


class TestResolveOnce:
    def test_repeat_submits_resolve_once(self, loaded_post_db, rng, resolve_calls):
        q = rng.standard_normal(16).astype(np.float32)
        with QueryServer(loaded_post_db, ServeConfig(workers=1)) as server:
            first = server.submit_search(["Post.content_emb"], q, 5).result(timeout=30)
            again = server.submit_search(["Post.content_emb"], q, 5).result(timeout=30)
        assert members(first) == members(again)
        assert resolve_calls == [["Post.content_emb"]]

    def test_a_new_attribute_resolves_again(self, loaded_post_db, rng, resolve_calls):
        db = loaded_post_db
        q = rng.standard_normal(16).astype(np.float32)
        with QueryServer(db, ServeConfig(workers=1)) as server:
            server.submit_search(["Post.content_emb"], q, 5).result(timeout=30)
            version = db.schema.version
            db.schema.add_embedding_attribute("Person", "bio_emb", dimension=16, metric=Metric.L2)
            assert db.schema.version == version + 1
            server.submit_search(["Post.content_emb"], q, 5).result(timeout=30)
            got = server.submit_search(["Person.bio_emb"], q, 5).result(timeout=30)
        assert len(got) == 0  # the new attribute holds no vector yet
        assert resolve_calls == [["Post.content_emb"]] * 2 + [["Person.bio_emb"]]

    def test_a_refusal_is_not_kept(self, loaded_post_db, rng, resolve_calls):
        db = loaded_post_db
        wrong = rng.standard_normal(8).astype(np.float32)
        with QueryServer(db, ServeConfig(workers=1)) as server:
            for _ in range(2):
                with pytest.raises(DimensionMismatchError):
                    server.submit_search(["Post.content_emb"], wrong, 5)
            for _ in range(2):
                with pytest.raises(UnknownTypeError):
                    server.submit_search(["Person.bio_emb"], wrong, 5)
            db.schema.add_embedding_attribute("Person", "bio_emb", dimension=8, metric=Metric.L2)
            assert len(server.submit_search(["Person.bio_emb"], wrong, 5).result(timeout=30)) == 0
        assert resolve_calls == [["Post.content_emb"]] * 2 + [["Person.bio_emb"]]
        _, memo = db.service.resolved
        assert list(memo) == [(("Person.bio_emb",), 8)]


class TestServeFuture:
    def test_result_times_out_typed(self):
        future = ServeFuture()
        for timeout in (0.01, 0, -1):
            with pytest.raises(ServeError, match="timed out"):
                future.result(timeout=timeout)
            with pytest.raises(ServeError, match="timed out"):
                future.exception(timeout=timeout)
        assert not future.done()

    def test_done_flips_on_completion(self):
        future = ServeFuture()
        assert not future.done()
        future._complete("value")
        assert future.done()
        assert future.result(timeout=0) == "value"
        assert future.exception(timeout=0) is None
        assert future.done()  # a wait does not close it again

    def test_every_waiter_wakes(self):
        future = ServeFuture()
        got = []
        waiters = [
            threading.Thread(target=lambda: got.append(future.result(timeout=10)))
            for _ in range(2)
        ]
        for waiter in waiters:
            waiter.start()
        wait_until(lambda: all(w.is_alive() for w in waiters))
        time.sleep(0.01)  # both are blocked in result()
        future._complete("value")
        for waiter in waiters:
            waiter.join(timeout=10)
        assert got == ["value", "value"]

    def test_exception_returns_the_error(self):
        future = ServeFuture()
        error = QueryTimeoutError("late", deadline=1.0, elapsed=2.0)
        future._fail(error)
        assert future.done()
        assert future.exception(timeout=0) is error
        with pytest.raises(QueryTimeoutError):
            future.result(timeout=0)

    def test_second_completion_is_harmless(self):
        future = ServeFuture()
        future._complete("first")
        future._complete("second")
        future._fail(ServeError("late failure"))
        assert future.result(timeout=0) == "first"
        assert future.exception(timeout=0) is None


# --------------------------------------------------------------------------
# result cache
# --------------------------------------------------------------------------


class TestResultCache:
    def test_hit_on_repeat_and_identical_result(self, loaded_post_db, rng):
        db = loaded_post_db
        config = ServeConfig(workers=1, enable_batching=False, enable_cache=True)
        q = rng.standard_normal(16).astype(np.float32)
        with QueryServer(db, config) as server:
            first = server.search(["Post.content_emb"], q, 5)
            second = server.search(["Post.content_emb"], q, 5)
            stats = server.cache.stats()
        assert members(first) == members(second)
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert members(first) == distances(db, ["Post.content_emb"], q, 5)[0]

    def test_commit_invalidates(self, loaded_post_db, rng):
        db = loaded_post_db
        config = ServeConfig(workers=1, enable_batching=False, enable_cache=True)
        q = rng.standard_normal(16).astype(np.float32)
        with QueryServer(db, config) as server:
            before = server.search(["Post.content_emb"], q, 3)
            # A vector equal to the query becomes the definitive top-1.
            with db.begin() as txn:
                txn.upsert_vertex("Post", 900, {"language": "en", "length": 1})
                txn.set_embedding("Post", 900, "content_emb", q)
            after = server.search(["Post.content_emb"], q, 3)
            stats = server.cache.stats()
        vid_900 = db.store.vid_for_pk("Post", 900)
        assert ("Post", vid_900) not in before
        assert ("Post", vid_900) in after
        assert stats["hits"] == 0 and stats["misses"] == 2

    def test_vacuum_invalidates_but_results_stable(self, loaded_post_db, rng):
        db = loaded_post_db
        config = ServeConfig(workers=1, enable_batching=False, enable_cache=True)
        q = rng.standard_normal(16).astype(np.float32)
        with db.begin() as txn:
            txn.upsert_vertex("Post", 901, {"language": "fr", "length": 2})
            txn.set_embedding("Post", 901, "content_emb", rng.standard_normal(16))
        with QueryServer(db, config) as server:
            before = server.search(["Post.content_emb"], q, 5)
            db.vacuum()  # delta merge + index merge move the watermark
            after = server.search(["Post.content_emb"], q, 5)
            stats = server.cache.stats()
        assert members(before) == members(after)
        assert stats["misses"] == 2, "vacuum must invalidate, not serve stale"

    def test_no_cache_flag_bypasses(self, loaded_post_db, rng):
        db = loaded_post_db
        config = ServeConfig(workers=1, enable_batching=False, enable_cache=True)
        q = rng.standard_normal(16).astype(np.float32)
        with QueryServer(db, config) as server:
            server.search(["Post.content_emb"], q, 5, no_cache=True)
            server.search(["Post.content_emb"], q, 5, no_cache=True)
            stats = server.cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0 and stats["entries"] == 0

    def test_cache_records_producing_kernel(self, loaded_post_db, rng):
        db = loaded_post_db
        config = ServeConfig(
            workers=1,
            enable_batching=True,
            enable_cache=True,
            batch_window_seconds=0.02,
        )
        queries = rng.standard_normal((12, 16)).astype(np.float32)
        with QueryServer(db, config) as server:
            # Concurrent default-ef submissions fuse; entries tagged "fused".
            futures = [
                server.submit_search(["Post.content_emb"], q, 5) for q in queries
            ]
            for f in futures:
                assert f.exception(timeout=30) is None
            kernels = server.cache.stats()["kernels"]
        assert kernels.get("fused", 0) + kernels.get("hnsw", 0) == len(queries)
        assert kernels.get("fused", 0) > 0

    def test_lru_bounds(self):
        cache = ResultCache(max_bytes=1 << 20, max_entries=2)
        def key_for(i):
            return (("Post.content_emb",), 3, None, np.float32([i]).tobytes(), ((1, 1, 1, 0),))
        assert cache.put(key_for(0), ((0.0, "Post", 0),)) == 0
        assert cache.put(key_for(1), ((0.0, "Post", 1),)) == 0
        assert cache.get(key_for(0)) is not None  # 0 becomes most-recent
        assert cache.put(key_for(2), ((0.0, "Post", 2),)) == 1  # evicts 1
        assert cache.get(key_for(1)) is None
        assert cache.get(key_for(0)) is not None
        assert len(cache) == 2

    def test_byte_bound_eviction(self):
        cache = ResultCache(max_bytes=1200, max_entries=64)
        big = tuple((float(i), "Post", i) for i in range(8))
        keys = [
            (("a",), 3, None, np.float32([i]).tobytes(), ((i, 0, 0, 0),))
            for i in range(4)
        ]
        evicted = sum(cache.put(k, big) for k in keys)
        assert evicted > 0
        assert cache.stats()["bytes"] <= 1200


# --------------------------------------------------------------------------
# micro-batcher collection window
# --------------------------------------------------------------------------


class _FakeRequest:
    """Minimal stand-in: the batcher reads batch_key(), the submit time, and
    the deadline."""

    def __init__(self, key, deadline=None):
        self._key = key
        self.submitted_at = time.monotonic()
        self.deadline = deadline

    def batch_key(self):
        return self._key


def _feed(queue, key, count, gap):
    """Put ``count`` fresh ``key`` requests, one every ``gap`` seconds."""
    fed = []

    def run():
        for _ in range(count):
            time.sleep(gap)
            request = _FakeRequest(key)
            fed.append(request)
            try:
                queue.put(request, "default")
            except AdmissionRejectedError:  # the test closed the queue
                fed.pop()
                return

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, fed


class TestBatcherWindow:
    def test_wait_for_put_ignores_existing_items(self):
        """A non-empty queue alone must not wake the batcher — only a new
        arrival can change which fronts match, so waking on 'non-empty'
        degenerates into a busy spin against incompatible requests."""
        queue = WeightedFairQueue(TenantRegistry())
        queue.put(_FakeRequest(("other",)), "default")
        seen = queue.put_sequence()
        start = time.monotonic()
        assert queue.wait_for_put(seen, 0.05) == seen
        assert time.monotonic() - start >= 0.04

        waker = threading.Timer(0.01, lambda: queue.put(_FakeRequest(None), "default"))
        waker.start()
        start = time.monotonic()
        assert queue.wait_for_put(seen, 5.0) == seen + 1
        assert time.monotonic() - start < 1.0
        queue.close()

    def test_lone_leader_neither_waits_nor_spins(self):
        """Nothing compatible queued — an idle queue, or only an incompatible
        front — means nothing to wait for: the leader runs at once."""
        for incompatible in (0, 1):
            queue = WeightedFairQueue(TenantRegistry())
            batcher = MicroBatcher(queue, window_seconds=0.5, max_batch=4)
            if incompatible:
                queue.put(_FakeRequest(("other", 5)), "default")
            leader = _FakeRequest(("mine", 5))
            telemetry = Telemetry()
            wall_start = time.monotonic()
            cpu_start = time.process_time()
            with use_telemetry(telemetry):
                batch = batcher.collect(leader)
            wall = time.monotonic() - wall_start
            cpu = time.process_time() - cpu_start
            assert batch == [leader]
            assert queue.depth() == incompatible, "incompatible front must stay queued"
            assert wall < 0.1, f"a lone leader waited {wall:.3f}s of a 0.5s window"
            assert cpu < 0.1, f"collect() busy-spun: {cpu:.3f}s CPU for {wall:.3f}s wall"
            counters = telemetry.registry.snapshot()["counters"]
            assert counters == {"serve.batch_close_lone": 1}
            queue.close()

    def test_collect_fills_from_matching_arrivals(self):
        """Riders arriving at a steady cadence are all collected, and the
        rider that fills the batch closes it at once."""
        queue = WeightedFairQueue(TenantRegistry())
        batcher = MicroBatcher(queue, window_seconds=5.0, max_batch=6)
        leader = _FakeRequest(("k",))
        time.sleep(0.01)
        first = _FakeRequest(("k",))
        queue.put(first, "default")
        feeder, fed = _feed(queue, ("k",), count=4, gap=0.01)
        telemetry = Telemetry()
        start = time.monotonic()
        with use_telemetry(telemetry):
            batch = batcher.collect(leader)
        elapsed = time.monotonic() - start
        feeder.join(5)
        assert batch == [leader, first, *fed]
        assert elapsed < 1.0, "a full batch must not wait out the window"
        snapshot = telemetry.registry.snapshot()
        assert snapshot["counters"] == {"serve.batch_close_full": 1}
        waited = snapshot["histograms"]["serve.batch_wait_seconds"]
        assert waited["count"] == 1 and 0.0 < waited["sum"] <= elapsed
        queue.close()

    def test_stalled_cadence_closes_after_a_few_gaps(self):
        """Once arrivals fall behind the batch's own cadence the batch closes
        — long before the window — and an incompatible arrival during that
        last wait neither joins the batch nor turns the wait into a spin."""
        queue = WeightedFairQueue(TenantRegistry())
        batcher = MicroBatcher(queue, window_seconds=5.0, max_batch=32)
        leader = _FakeRequest(("k",))
        time.sleep(0.02)
        first = _FakeRequest(("k",))
        queue.put(first, "default")
        feeder, fed = _feed(queue, ("k",), count=2, gap=0.02)
        stranger = threading.Timer(
            0.06, lambda: queue.put(_FakeRequest(("other",)), "default")
        )
        stranger.start()
        telemetry = Telemetry()
        start = time.monotonic()
        cpu_start = time.process_time()
        with use_telemetry(telemetry):
            batch = batcher.collect(leader)
        elapsed = time.monotonic() - start
        cpu = time.process_time() - cpu_start
        feeder.join(5)
        stranger.join(5)
        assert batch == [leader, first, *fed]
        assert queue.depth() == 1, "the incompatible arrival must stay queued"
        # Two more riders at 20 ms, then QUIET_GAPS (4) gaps of silence.
        assert 0.08 < elapsed < 1.0, f"closed after {elapsed:.3f}s"
        assert cpu < 0.1, f"collect() busy-spun: {cpu:.3f}s CPU for {elapsed:.3f}s wall"
        counters = telemetry.registry.snapshot()["counters"]
        assert counters == {"serve.batch_close_quiet": 1}
        queue.close()

    def test_window_still_caps_steady_arrivals(self):
        queue = WeightedFairQueue(TenantRegistry())
        batcher = MicroBatcher(queue, window_seconds=0.1, max_batch=1000)
        leader = _FakeRequest(("k",))
        time.sleep(0.005)
        first = _FakeRequest(("k",))
        queue.put(first, "default")
        feeder, fed = _feed(queue, ("k",), count=80, gap=0.005)
        telemetry = Telemetry()
        start = time.monotonic()
        with use_telemetry(telemetry):
            batch = batcher.collect(leader)
        elapsed = time.monotonic() - start
        assert 0.09 <= elapsed < 0.3, f"cap of 0.1s, closed after {elapsed:.3f}s"
        queue.close()
        feeder.join(5)
        assert batch[:2] == [leader, first]
        assert 2 < len(batch) < 2 + 80, "riders kept arriving past the cap"
        assert batch[2:] == fed[: len(batch) - 2], "riders lost or reordered"
        counters = telemetry.registry.snapshot()["counters"]
        assert counters == {"serve.batch_close_cap": 1}

    def test_rider_deadline_closes_collection(self):
        """Collection honours the earliest deadline in hand, not only the
        leader's: it closes while the rider can still run."""
        queue = WeightedFairQueue(TenantRegistry())
        batcher = MicroBatcher(queue, window_seconds=5.0, max_batch=1000)
        leader = _FakeRequest(("k",))
        time.sleep(0.005)
        rider = _FakeRequest(("k",), deadline=time.monotonic() + 0.15)
        queue.put(rider, "default")
        feeder, _ = _feed(queue, ("k",), count=100, gap=0.005)
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            batch = batcher.collect(leader)
        closed_at = time.monotonic()
        queue.close()
        feeder.join(5)
        assert batch[:2] == [leader, rider]
        assert closed_at < rider.deadline, "the rider was held past its deadline"
        counters = telemetry.registry.snapshot()["counters"]
        assert counters == {"serve.batch_close_deadline": 1}

    def test_batch_instruments_are_catalogued(self):
        from repro.telemetry import INSTRUMENTS

        assert INSTRUMENTS["serve.batch_wait_seconds"][0] == "histogram"
        for reason in ("full", "quiet", "cap", "deadline", "lone"):
            assert INSTRUMENTS[f"serve.batch_close_{reason}"][0] == "counter"


# --------------------------------------------------------------------------
# admission control / overload
# --------------------------------------------------------------------------


@pytest.fixture
def gated_gsql(loaded_post_db, monkeypatch):
    """Block GSQL execution on an event so tests can wedge the one worker."""
    gate = threading.Event()
    session = loaded_post_db.gsql
    original = session.run

    def gated_run(text, **kwargs):
        gate.wait(10)
        return original(text, **kwargs)

    monkeypatch.setattr(session, "run", gated_run)
    return gate


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestAdmission:
    def test_queue_full_sheds_typed(self, loaded_post_db, gated_gsql):
        db = loaded_post_db
        config = ServeConfig(workers=1, max_queue_depth=2, enable_batching=False)
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config) as server:
            blocker = server.submit_gsql("INSERT INTO Post VALUES (950)")
            assert wait_until(lambda: server.queue.depth() == 0)
            queued = [
                server.submit_gsql("INSERT INTO Post VALUES (951)"),
                server.submit_gsql("INSERT INTO Post VALUES (952)"),
            ]
            with pytest.raises(AdmissionRejectedError) as excinfo:
                server.submit_gsql("INSERT INTO Post VALUES (953)")
            assert excinfo.value.reason == "queue_full"
            gated_gsql.set()
            for future in [blocker, *queued]:
                assert future.exception(timeout=10) is None
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serve.shed"] == 1
        assert counters["serve.shed_queue_full"] == 1
        assert counters["serve.completed"] == 3

    def test_rate_limit_sheds_typed(self, loaded_post_db, rng):
        db = loaded_post_db
        tenants = [Tenant("metered", rate_limit=0.001, burst=1.0)]
        config = ServeConfig(workers=1, enable_batching=False, enable_cache=False)
        telemetry = Telemetry()
        q = rng.standard_normal(16).astype(np.float32)
        with use_telemetry(telemetry), QueryServer(db, config, tenants=tenants) as server:
            ok = server.search(["Post.content_emb"], q, 3, tenant="metered")
            assert len(members(ok)) == 3
            with pytest.raises(RateLimitedError) as excinfo:
                server.submit_search(
                    ["Post.content_emb"], q, 3, tenant="metered"
                )
            assert excinfo.value.reason == "rate_limited"
            # Other tenants are unaffected by the metered tenant's bucket.
            server.search(["Post.content_emb"], q, 3)
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serve.shed_rate_limited"] == 1

    def test_deadline_expired_requests_fail_typed(self, loaded_post_db, gated_gsql):
        db = loaded_post_db
        config = ServeConfig(workers=1, max_queue_depth=8, enable_batching=False)
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config) as server:
            blocker = server.submit_gsql("INSERT INTO Post VALUES (960)")
            assert wait_until(lambda: server.queue.depth() == 0)
            doomed = server.submit_gsql(
                "INSERT INTO Post VALUES (961)", timeout=0.01
            )
            time.sleep(0.05)  # let the deadline pass while the worker is wedged
            gated_gsql.set()
            with pytest.raises(QueryTimeoutError):
                doomed.result(timeout=10)
            assert blocker.exception(timeout=10) is None
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serve.deadline_timeouts"] == 1

    def test_short_deadline_rider_runs_behind_deadline_free_leader(
        self, loaded_post_db, gated_gsql, rng
    ):
        """Batch collection closes for the earliest deadline in hand.  While
        compatible requests keep arriving the window stays open up to its cap
        (1 s here); a rider due in 0.25 s must be executed, not held until it
        can only be shed — even though the leader carries no deadline."""
        db = loaded_post_db
        config = ServeConfig(
            workers=1, enable_cache=False, batch_window_seconds=1.0, max_batch=1024
        )
        tenants = [Tenant("a"), Tenant("b")]  # "a" dequeues first: it leads
        queries = rng.standard_normal((2, 16)).astype(np.float32)
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config, tenants=tenants) as server:
            blocker = server.submit_gsql("INSERT INTO Post VALUES (970)")
            assert wait_until(lambda: server.queue.depth() == 0)
            leader = server.submit_search(["Post.content_emb"], queries[0], 3, tenant="a")
            rider = server.submit_search(
                ["Post.content_emb"], queries[1], 3, tenant="b", timeout=0.25
            )
            stop = threading.Event()
            trickle = []

            def feed():
                while not stop.wait(0.005):
                    trickle.append(
                        server.submit_search(["Post.content_emb"], queries[0], 3, tenant="a")
                    )

            feeder = threading.Thread(target=feed, daemon=True)
            feeder.start()
            # Let the trickle set the cadence the batch will show, then
            # free the worker.
            assert wait_until(lambda: len(trickle) >= 6)
            gated_gsql.set()
            try:
                assert len(members(rider.result(timeout=10))) == 3
                assert len(members(leader.result(timeout=10))) == 3
            finally:
                stop.set()
                feeder.join(5)
            assert blocker.exception(timeout=10) is None
            for future in trickle:
                assert future.exception(timeout=10) is None
        counters = telemetry.registry.snapshot()["counters"]
        assert counters.get("serve.deadline_timeouts", 0) == 0
        assert counters["serve.batch_close_deadline"] >= 1

    def test_overload_accounts_for_every_request(self, loaded_post_db, rng):
        """Burst 60 requests at a tiny server: each one either completes or
        fails with a typed shed/timeout error — never a hang or a drop —
        and the counters add up in the metrics snapshot."""
        db = loaded_post_db
        config = ServeConfig(
            workers=1, max_queue_depth=4, enable_batching=False,
            enable_cache=False, default_timeout=0.5,
        )
        tenants = [Tenant("burst", rate_limit=50.0, burst=5.0)]
        queries = rng.standard_normal((60, 16)).astype(np.float32)
        telemetry = Telemetry()
        outcomes = {"ok": 0, "shed": 0, "timeout": 0}
        lock = threading.Lock()

        def fire(q):
            try:
                future = server.submit_search(
                    ["Post.content_emb"], q, 5, tenant="burst"
                )
                future.result(timeout=30)
                bucket = "ok"
            except (AdmissionRejectedError, RateLimitedError):
                bucket = "shed"
            except QueryTimeoutError:
                bucket = "timeout"
            with lock:
                outcomes[bucket] += 1

        with use_telemetry(telemetry), QueryServer(db, config, tenants=tenants) as server:
            threads = [threading.Thread(target=fire, args=(q,)) for q in queries]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads), "a request hung"
        assert sum(outcomes.values()) == 60
        assert outcomes["shed"] > 0, "overload must shed"
        counters = telemetry.registry.snapshot()["counters"]
        assert counters.get("serve.shed", 0) == outcomes["shed"]
        assert counters.get("serve.deadline_timeouts", 0) == outcomes["timeout"]
        assert (
            counters.get("serve.completed", 0) + counters.get("serve.shed", 0)
            == counters["serve.requests"]
        )

    def test_token_bucket_refills_on_injected_clock(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.2)  # 0.4 tokens refilled
        assert bucket.try_acquire(0.6)  # 1.2 tokens by now
        with pytest.raises(ServeError):
            TokenBucket(rate=0)
        with pytest.raises(ServeError):
            TokenBucket(rate=10, burst=0.5)


# --------------------------------------------------------------------------
# tenancy / fair queueing / lifecycle
# --------------------------------------------------------------------------


class TestTenancy:
    def test_unknown_tenant_rejected(self, loaded_post_db):
        with QueryServer(loaded_post_db) as server:
            with pytest.raises(ServeError, match="unknown tenant"):
                server.submit_gsql("INSERT INTO Post VALUES (1)", tenant="ghost")

    def test_readonly_tenant_cannot_write(self, loaded_post_db, rng):
        db = loaded_post_db
        tenants = [Tenant("reader", allow_writes=False)]
        config = ServeConfig(workers=1, enable_batching=False)
        with QueryServer(db, config, tenants=tenants) as server:
            future = server.submit_gsql(
                "INSERT INTO Post VALUES (970)", tenant="reader"
            )
            error = future.exception(timeout=10)
            assert isinstance(error, GSQLSemanticError)
            assert "read-only" in str(error)
            # Reads still work for the same tenant.
            result = server.run_gsql(
                "SELECT s FROM (s:Person) WHERE s.firstName == \"P0\";",
                tenant="reader",
            )
            assert result is not None
        assert db.store.vid_for_pk("Post", 970) is None

    def test_restricted_role_gets_rbac_filtered_search(self, loaded_post_db, rng):
        db = loaded_post_db
        db.access.create_role("en_only", {"Post": lambda row: row["language"] == "en"})
        tenants = [Tenant("limited", role="en_only")]
        config = ServeConfig(workers=1, enable_batching=False)
        q = rng.standard_normal(16).astype(np.float32)
        with QueryServer(db, config, tenants=tenants) as server:
            got = server.search(["Post.content_emb"], q, 10, tenant="limited")
            direct = db.access.authorized_search(
                "en_only", ["Post.content_emb"], q, 10
            )
        assert members(got) == members(direct)
        with db.snapshot() as snap:
            rows = dict(snap.scan("Post"))
        assert all(rows[vid]["language"] == "en" for _, vid in got)

    def test_weighted_fair_queue_interleaves_by_weight(self):
        registry = TenantRegistry(
            [Tenant("heavy", weight=2.0), Tenant("light", weight=1.0)]
        )
        queue = WeightedFairQueue(registry)
        for i in range(4):
            queue.put(("heavy", i), "heavy")
        for i in range(2):
            queue.put(("light", i), "light")
        order = [queue.take(timeout=1)[0] for _ in range(6)]
        # 2:1 weights → heavy gets ~2 of every 3 slots, not all 4 first.
        assert order.count("heavy") == 4
        assert "light" in order[:3]
        queue.close()

    def test_stop_fails_queued_requests_typed(self, loaded_post_db, gated_gsql):
        db = loaded_post_db
        config = ServeConfig(workers=1, enable_batching=False)
        server = QueryServer(db, config).start()
        blocker = server.submit_gsql("INSERT INTO Post VALUES (980)")
        assert wait_until(lambda: server.queue.depth() == 0)
        stranded = server.submit_gsql("INSERT INTO Post VALUES (981)")
        gated_gsql.set()
        server.stop()
        error = stranded.exception(timeout=10)
        assert isinstance(error, AdmissionRejectedError)
        assert error.reason == "shutdown"
        assert blocker.exception(timeout=10) is None
        with pytest.raises(ServeError):
            server.start()
        with pytest.raises(ServeError):
            server.submit_gsql("INSERT INTO Post VALUES (982)")


# --------------------------------------------------------------------------
# satellites: HNSW persistence, open-loop load generation
# --------------------------------------------------------------------------


class TestOpenLoopLoadGen:
    def make_gen(self):
        return ClosedLoopLoadGenerator(
            ClusterSimulator(make_cluster(1, 8, cores=2)), connections=8
        )

    def test_underload_completes_offered(self):
        gen = self.make_gen()
        times = [{seg: 0.004 for seg in range(8)}]
        result = gen.run_open_loop(times, duration_seconds=2.0, target_qps=20, seed=7)
        # 20 qps for 2 s is ~40 Poisson arrivals, and an underloaded run
        # completes every one of them.
        assert 20 <= result.completed <= 60
        assert result.target_qps == 20

    def test_seeded_runs_reproduce(self):
        gen = self.make_gen()
        times = [{seg: 0.004 for seg in range(8)}]
        a = gen.run_open_loop(times, duration_seconds=1.0, target_qps=100, seed=3)
        b = gen.run_open_loop(times, duration_seconds=1.0, target_qps=100, seed=3)
        assert (a.completed, a.qps) == (b.completed, b.qps)
        c = gen.run_open_loop(times, duration_seconds=1.0, target_qps=100, seed=4)
        assert (a.completed, a.qps) != (c.completed, c.qps)


# --------------------------------------------------------------------------
# freshness SLAs: staleness-bounded reads & read-your-writes tokens
# --------------------------------------------------------------------------


class TestSLA:
    def test_staleness_bound_serves_fresh_when_idle(self, loaded_post_db, rng):
        db = loaded_post_db
        config = ServeConfig(workers=2, enable_batching=False)
        q = rng.standard_normal(16).astype(np.float32)
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config) as server:
            got = members(server.search(["Post.content_emb"], q, 5, max_staleness=0))
            direct = members(db.vector_search(["Post.content_emb"], q, 5))
        assert got == direct
        counters = telemetry.registry.snapshot()["counters"]
        assert counters.get("serve.staleness_rejections", 0) == 0
        assert counters["serve.completed"] == 1

    def test_sla_requests_use_partitioned_cache(self, loaded_post_db, rng):
        db = loaded_post_db
        config = ServeConfig(workers=2, enable_batching=False)
        q = rng.standard_normal(16).astype(np.float32)
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config) as server:
            first = members(server.search(["Post.content_emb"], q, 5, max_staleness=0))
            second = members(server.search(["Post.content_emb"], q, 5, max_staleness=0))
        assert first == second
        counters = telemetry.registry.snapshot()["counters"]
        assert counters.get("serve.cache_hits", 0) >= 1

    def test_read_your_writes_after_commit(self, loaded_post_db, rng):
        db = loaded_post_db
        config = ServeConfig(workers=2, enable_batching=False)
        q = rng.standard_normal(16).astype(np.float32)
        with db.begin() as txn:
            txn.upsert_vertex("Post", 900, {"language": "en", "length": 1})
            txn.set_embedding("Post", 900, "content_emb", q)
        token = db.session_token()
        with QueryServer(db, config) as server:
            got = server.search(["Post.content_emb"], q, 3, session_token=token)
        vid = db.store.vid_for_pk("Post", 900)
        assert ("Post", vid) in got

    def test_future_token_fails_typed(self, loaded_post_db, rng):
        db = loaded_post_db
        config = ServeConfig(workers=1, enable_batching=False, staleness_wait=0.02)
        q = rng.standard_normal(16).astype(np.float32)
        token = db.session_token() + 3  # a commit that will never happen here
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config) as server:
            with pytest.raises(StalenessBoundError) as excinfo:
                server.search(["Post.content_emb"], q, 3, session_token=token)
        assert excinfo.value.session_token == token
        assert excinfo.value.waited > 0
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serve.session_token_rejections"] == 1
        assert counters.get("serve.session_token_waits", 0) >= 1

    def test_midcommit_window_fails_fast_or_serves_tolerant(
        self, loaded_post_db, rng
    ):
        """Freeze the commit mid-publication (hook fired, last_tid not yet
        published): a ``max_staleness=0`` request must fail typed, never
        serve silently stale, while a lag-tolerant request is served from
        the pre-commit snapshot without being cached.  The config-level
        ``default_max_staleness`` applies to requests that don't pass their
        own bound."""
        db = loaded_post_db
        config = ServeConfig(
            workers=2, enable_batching=False,
            default_max_staleness=0, staleness_wait=0.05,
        )
        q = rng.standard_normal(16).astype(np.float32)
        entered = threading.Event()
        release = threading.Event()

        def stalling_hook(tid, ops):
            entered.set()
            release.wait(timeout=30)

        db.store.register_embedding_hook(stalling_hook)
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config) as server:

            def commit():
                with db.begin() as txn:
                    txn.upsert_vertex("Post", 901, {"language": "en", "length": 1})
                    txn.set_embedding("Post", 901, "content_emb", q)

            committer = threading.Thread(target=commit)
            committer.start()
            assert entered.wait(timeout=10), "commit never reached the hook"
            # default_max_staleness=0 routes the plain search down the SLA
            # path; the watermark runs ahead of every pinnable snapshot for
            # as long as the commit is wedged, so it must fail typed.
            with pytest.raises(StalenessBoundError) as excinfo:
                server.search(["Post.content_emb"], q, 3)
            assert excinfo.value.lag >= 1
            assert excinfo.value.max_staleness == 0
            # An explicit lag-tolerant bound overrides the default and is
            # served from the pre-commit snapshot (uncached: commit race).
            tolerant = server.search(["Post.content_emb"], q, 3, max_staleness=5)
            vid = db.store.vid_for_pk("Post", 901)
            assert ("Post", vid) not in tolerant
            release.set()
            committer.join(timeout=30)
            assert not committer.is_alive()
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serve.staleness_rejections"] == 1
        assert counters.get("serve.staleness_waits", 0) >= 1
        assert counters.get("serve.cache_bypass_commit_race", 0) >= 1

    def test_session_token_closes_commit_publish_window(self, loaded_post_db, rng):
        """The token-vs-commit-publish interleaving: a client holding the
        wedged commit's TID as its session token must not be served from a
        pre-commit snapshot — the server waits until the commit publishes,
        then serves a top-k containing the client's own write."""
        db = loaded_post_db
        config = ServeConfig(workers=2, enable_batching=False, staleness_wait=5.0)
        q = rng.standard_normal(16).astype(np.float32)
        entered = threading.Event()
        release = threading.Event()

        def stalling_hook(tid, ops):
            entered.set()
            release.wait(timeout=30)

        db.store.register_embedding_hook(stalling_hook)
        token = db.session_token() + 1  # the wedged commit's TID
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config) as server:

            def commit():
                with db.begin() as txn:
                    txn.upsert_vertex("Post", 902, {"language": "en", "length": 1})
                    txn.set_embedding("Post", 902, "content_emb", q)

            committer = threading.Thread(target=commit)
            committer.start()
            assert entered.wait(timeout=10), "commit never reached the hook"
            future = server.submit_search(
                ["Post.content_emb"], q, 3, session_token=token
            )
            # The server must be observably *waiting* (re-pinning snapshots),
            # not serving behind the token, before we let the commit publish.
            assert wait_until(
                lambda: telemetry.registry.snapshot()["counters"].get(
                    "serve.session_token_waits", 0
                )
                > 0
            ), "SLA path never waited on the unpublished commit"
            release.set()
            committer.join(timeout=30)
            got = future.result(timeout=10)
            vid = db.store.vid_for_pk("Post", 902)
            assert ("Post", vid) in got, "read-your-writes served a stale top-k"

    def test_invalid_sla_arguments_rejected(self, loaded_post_db, rng):
        db = loaded_post_db
        q = rng.standard_normal(16).astype(np.float32)
        with QueryServer(db, ServeConfig(workers=1)) as server:
            with pytest.raises(ServeError):
                server.submit_search(["Post.content_emb"], q, 3, max_staleness=-1)
            with pytest.raises(ServeError):
                server.submit_search(["Post.content_emb"], q, 3, session_token=-2)
            with pytest.raises(ServeError):
                server.submit_search(["Post.content_emb"], q, 3, max_staleness=1.5)
            with pytest.raises(ServeError):
                server.submit_search(["Post.content_emb"], q, 3, session_token=True)

    def test_sla_over_no_attributes_fails_typed(self, loaded_post_db, rng):
        """An SLA-bound search over an empty attribute list fails like the
        plain path does (typed), on the server and on the elastic router."""
        from repro.elastic import ElasticTier
        from repro.errors import EmbeddingCompatibilityError

        db = loaded_post_db
        config = ServeConfig(workers=1, enable_batching=False)
        q = rng.standard_normal(16).astype(np.float32)
        with QueryServer(db, config) as server:
            with pytest.raises(EmbeddingCompatibilityError):
                server.search([], q, 3)
            with pytest.raises(EmbeddingCompatibilityError):
                server.search([], q, 3, max_staleness=0)
        with ElasticTier(db, num_servers=2, config=config) as tier:
            with pytest.raises(EmbeddingCompatibilityError):
                tier.search([], q, 3)
            with pytest.raises(EmbeddingCompatibilityError):
                tier.search([], q, 3, session_token=0)


# --------------------------------------------------------------------------
# noisy-neighbor isolation: cache partitions, queue shares, vacuum quotas
# --------------------------------------------------------------------------


def add_person_embeddings(db, rng, count=40, dim=16):
    """Give Person its own embedding attribute + store (tenant B's data)."""
    db.schema.add_embedding_attribute(
        "Person", "emb", dimension=dim, model="GPT4", metric=Metric.L2
    )
    with db.begin() as txn:
        for i in range(count):
            txn.upsert_vertex("Person", 100 + i, {"firstName": f"B{i}"})
            txn.set_embedding(
                "Person", 100 + i, "emb",
                rng.standard_normal(dim).astype(np.float32),
            )


class TestNoisyNeighbor:
    def test_flooding_tenant_cannot_evict_neighbor_cache(self, loaded_post_db, rng):
        """Tenant B floods its own partition past its entry bound while
        tenant A replays a hot query set; A's entries and hit rate must
        hold because the cache is partitioned per tenant and B's commits
        only move B's store watermark."""
        db = loaded_post_db
        add_person_embeddings(db, rng)
        db.vacuum()
        config = ServeConfig(workers=2, enable_batching=False)
        tenants = [Tenant("a"), Tenant("b")]
        hot = rng.standard_normal((4, 16)).astype(np.float32)
        flood = rng.standard_normal((48, 16)).astype(np.float32)
        server = QueryServer(db, config, tenants=tenants)
        server.cache = ServeResultCache(max_entries=32)  # 8 per partition
        with server:
            for q in hot:  # warm A's partition
                server.search(["Post.content_emb"], q, 3, tenant="a")
            for q in flood[:24]:
                server.search(["Person.emb"], q, 3, tenant="b")
            with db.begin() as txn:  # B commits on its own attribute only
                txn.set_embedding(
                    "Person", 100, "emb", rng.standard_normal(16).astype(np.float32)
                )
            for q in flood[24:]:
                server.search(["Person.emb"], q, 3, tenant="b")
            for q in hot:  # A replays: every probe must hit
                server.search(["Post.content_emb"], q, 3, tenant="a")
            stats = server.cache.stats()
        part_a = stats["per_tenant"]["a"]
        part_b = stats["per_tenant"]["b"]
        assert part_a["hits"] == 4 and part_a["misses"] == 4
        assert part_a["entries"] == 4
        assert part_b["evictions"] > 0, "flood must overflow B's partition"
        assert part_b["entries"] <= 8
        # Aggregate stats remain the sum of the partitions.
        assert stats["hits"] == part_a["hits"] + part_b["hits"]

    @pytest.mark.parametrize("max_bytes, max_entries", [(1 << 20, 32), (15_360, 1024)])
    def test_partitions_never_exceed_the_totals(self, max_bytes, max_entries):
        """Eight tenants each filling a partition hold no more than the
        cache's totals, entries or bytes: the least recently used partition
        goes whole, and its entries still count as evicted."""
        cache = ServeResultCache(max_bytes=max_bytes, max_entries=max_entries)
        value = tuple((0.5, "Post", vid) for vid in range(10))  # 960 bytes an entry
        puts = 0
        for tenant in range(8):
            for i in range(20):
                key = (("Post.content_emb",), 10, None, bytes(64), (tenant, i))
                cache.put(f"t{tenant}", key, value)
                puts += 1
                stats = cache.stats()
                assert stats["entries"] <= max_entries
                assert stats["bytes"] <= max_bytes
        assert sorted(stats["per_tenant"]) == ["t4", "t5", "t6", "t7"]
        assert stats["evictions"] == puts - stats["entries"]

    def test_neighbor_latency_holds_under_concurrent_flood(
        self, loaded_post_db, rng
    ):
        db = loaded_post_db
        add_person_embeddings(db, rng)
        db.vacuum()
        config = ServeConfig(workers=3)
        tenants = [Tenant("a", weight=2.0), Tenant("b")]
        hot = rng.standard_normal((4, 16)).astype(np.float32)
        flood = rng.standard_normal((64, 16)).astype(np.float32)
        latencies: list[float] = []
        errors: list[BaseException] = []

        def victim(server):
            for i in range(40):
                start = time.perf_counter()
                try:
                    server.search(["Post.content_emb"], hot[i % 4], 3, tenant="a")
                except ReproError as exc:
                    errors.append(exc)
                latencies.append(time.perf_counter() - start)

        def flooder(server, offset):
            for i in range(32):
                try:
                    server.search(
                        ["Person.emb"], flood[(offset + i) % 64], 3, tenant="b"
                    )
                except ReproError as exc:
                    errors.append(exc)

        server = QueryServer(db, config, tenants=tenants)
        server.cache = ServeResultCache(max_entries=32)  # 8 per partition
        with server:
            threads = [
                threading.Thread(target=victim, args=(server,)),
                threading.Thread(target=flooder, args=(server, 0)),
                threading.Thread(target=flooder, args=(server, 32)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            stats = server.cache.stats()
        assert not errors
        lat = sorted(latencies)
        p95 = lat[min(len(lat) - 1, int(len(lat) * 0.95))]
        assert p95 < 1.0, f"victim p95 {p95:.3f}s collapsed under flood"
        part_a = stats["per_tenant"]["a"]
        assert part_a["hits"] / max(1, part_a["hits"] + part_a["misses"]) >= 0.5

    def test_tenant_queue_share_bounds_flooder(self, loaded_post_db, gated_gsql):
        db = loaded_post_db
        config = ServeConfig(workers=1, max_queue_depth=8, enable_batching=False)
        tenants = [Tenant("a"), Tenant("b", max_queue_share=0.25)]
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config, tenants=tenants) as server:
            blocker = server.submit_gsql("INSERT INTO Post VALUES (970)", tenant="a")
            assert wait_until(lambda: server.queue.depth() == 0)
            allowed = [
                server.submit_gsql("INSERT INTO Post VALUES (971)", tenant="b"),
                server.submit_gsql("INSERT INTO Post VALUES (972)", tenant="b"),
            ]
            with pytest.raises(AdmissionRejectedError) as excinfo:
                server.submit_gsql("INSERT INTO Post VALUES (973)", tenant="b")
            assert excinfo.value.reason == "tenant_share"
            # The flooded tenant's cap does not block its neighbor.
            neighbor = server.submit_gsql("INSERT INTO Post VALUES (974)", tenant="a")
            gated_gsql.set()
            for future in [blocker, *allowed, neighbor]:
                assert future.exception(timeout=10) is None
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serve.shed_tenant_share"] == 1

    def test_vacuum_tenant_quota_defers_flooder_stores(self, loaded_post_db, rng):
        db = loaded_post_db
        add_person_embeddings(db, rng)
        # Fresh unmerged deltas on BOTH of tenant b's stores.
        with db.begin() as txn:
            txn.set_embedding(
                "Post", 0, "content_emb", rng.standard_normal(16).astype(np.float32)
            )
        vm = db.vacuum_manager
        vm.assign_tenant("Post", "content_emb", "b")
        vm.assign_tenant("Person", "emb", "b")
        vm.set_tenant_quota("b", 1)
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            first = vm.run_once()
            second = vm.run_once()
        assert first["quota_deferred"] == 1, "second store must defer"
        assert first["flushed"] > 0
        assert second["quota_deferred"] == 0, "deferred store drains next round"
        assert second["flushed"] > 0
        assert vm.stats.quota_deferrals == 1
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["vacuum.quota_deferrals"] == 1
        # Quota removal restores unlimited rounds.
        vm.set_tenant_quota("b", None)
        third = vm.run_once()
        assert third["quota_deferred"] == 0
