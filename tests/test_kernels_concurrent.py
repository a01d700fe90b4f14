"""Concurrency regressions for the kernel-backed HNSW search stack.

Three races this PR fixed or must never reintroduce:

1. **Visited-scratch sharing** — searches used to share one ``_visited``
   array keyed by a non-atomically bumped generation counter; colliding
   concurrent searches could land on the same generation, treat each
   other's frontier as already-visited, and silently return truncated
   top-k.  Exclusive scratch checkout makes every concurrent search equal
   its serial twin.
2. **Torn state copies** — ``__getstate__`` copies the state under
   ``_write_lock``, so a pickle (or ``clone()``) taken mid-``update_items``
   always loads to a consistent index.
3. **Telemetry misattribution** — per-search distance/hop counters live on
   the :class:`~repro.index.kernels.QueryContext`, never on the shared
   cumulative ``IndexStats``; overlapping searches observe exactly the
   values a serial run would.

And one lazy cache: the first fused batch on a snapshot builds its scan
kernel and the kernel's column copy; two batches racing to build them
answer alike.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.core.embedding import EmbeddingType
from repro.core.service import EmbeddingStore
from repro.index.hnsw import HNSWIndex
from repro.telemetry import Telemetry, use_telemetry
from repro.types import IndexType, Metric

DIM = 12


def build_index(rng, n=400, **kwargs):
    kwargs.setdefault("metric", Metric.L2)
    index = HNSWIndex(dim=DIM, M=8, ef_construction=64, seed=11, **kwargs)
    vectors = rng.standard_normal((n, DIM)).astype(np.float32)
    index.update_items(list(range(n)), vectors)
    return index, vectors


def run_threads(workers):
    threads = [threading.Thread(target=fn) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestConcurrentSearchIdentity:
    def test_concurrent_topk_equals_serial(self, rng):
        """Colliding searches must not share visited scratch (truncation bug)."""
        index, _ = build_index(rng)
        queries = rng.standard_normal((16, DIM)).astype(np.float32)
        expected = [index.topk_search(q, 5, ef=48) for q in queries]

        num_threads = 8
        rounds = 30
        barrier = threading.Barrier(num_threads)
        failures: list[str] = []

        def worker(tid: int) -> None:
            barrier.wait()
            for r in range(rounds):
                qi = (tid + r) % len(queries)
                got = index.topk_search(queries[qi], 5, ef=48)
                want = expected[qi]
                if list(got.ids) != list(want.ids) or not np.array_equal(
                    got.distances, want.distances
                ):
                    failures.append(
                        f"thread {tid} round {r} query {qi}: "
                        f"{got.ids} != {want.ids}"
                    )
                    return

        run_threads([lambda tid=t: worker(tid) for t in range(num_threads)])
        assert not failures, failures[0]

    def test_search_during_inserts_returns_valid_results(self, rng):
        """Searches racing inserts never crash and only return live ids.

        No k-completeness assertion: mid-insert a freshly promoted entry
        point may not have its links wired yet, so a racing reader can see
        a short frontier.  What must hold is memory-safety (the visited
        scratch never indexes past its checkout-time capacity), id
        validity, and sorted distances.
        """
        index, _ = build_index(rng, n=100)
        stop = threading.Event()
        errors: list[BaseException] = []

        def inserter() -> None:
            local = np.random.default_rng(7)
            next_id = 100
            try:
                while not stop.is_set() and next_id < 400:
                    batch = local.standard_normal((10, DIM)).astype(np.float32)
                    index.update_items(list(range(next_id, next_id + 10)), batch)
                    next_id += 10
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def searcher() -> None:
            local = np.random.default_rng(13)
            try:
                while not stop.is_set():
                    q = local.standard_normal(DIM).astype(np.float32)
                    result = index.topk_search(q, 5, ef=32)
                    assert 1 <= len(result.ids) <= 5
                    assert all(0 <= int(i) < 400 for i in result.ids)
                    dists = result.distances
                    assert all(dists[i] <= dists[i + 1] for i in range(len(dists) - 1))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=inserter)] + [
            threading.Thread(target=searcher) for _ in range(3)
        ]
        for t in threads:
            t.start()
        threads[0].join()  # inserter finishes its 300 inserts
        stop.set()
        for t in threads[1:]:
            t.join()
        assert not errors, errors[0]


    def test_search_during_row_reuse_returns_valid_results(self, rng):
        """Searches racing in-place updates never crash, repeat an id, or
        leave the id range.

        A row reuse unlinks a row by shifting its in-neighbours' lists in
        place, so a lock-free reader can catch one id twice in a list; every
        round de-duplicates, so the answer still names each id once.
        """
        index, _ = build_index(rng, n=200)
        stop = threading.Event()
        errors: list[BaseException] = []

        def updater() -> None:
            local = np.random.default_rng(7)
            try:
                for _ in range(60):
                    ids = local.choice(200, size=10, replace=False)
                    batch = local.standard_normal((10, DIM)).astype(np.float32)
                    index.update_items(ids.tolist(), batch)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def searcher() -> None:
            local = np.random.default_rng(13)
            try:
                while not stop.is_set():
                    q = local.standard_normal(DIM).astype(np.float32)
                    result = index.topk_search(q, 5, ef=32)
                    ids = result.ids.tolist()
                    assert 1 <= len(ids) <= 5
                    assert len(set(ids)) == len(ids), ids
                    assert all(0 <= i < 200 for i in ids)
                    dists = result.distances
                    assert all(dists[i] <= dists[i + 1] for i in range(len(dists) - 1))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=updater)] + [
            threading.Thread(target=searcher) for _ in range(3)
        ]
        for t in threads:
            t.start()
        threads[0].join(timeout=120)  # updater finishes its 600 rewrites
        stop.set()
        for t in threads[1:]:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        assert index._count == 200 and len(index) == 200


class TestAtomicPersistence:
    def test_pickle_under_concurrent_inserts_roundtrips(self, rng):
        index, _ = build_index(rng, n=50)
        stop = threading.Event()
        errors: list[BaseException] = []
        blobs: list[bytes] = []

        def inserter() -> None:
            local = np.random.default_rng(5)
            next_id = 50
            try:
                while next_id < 250:
                    batch = local.standard_normal((5, DIM)).astype(np.float32)
                    index.update_items(list(range(next_id, next_id + 5)), batch)
                    next_id += 5
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def pickler() -> None:
            try:
                while not stop.is_set():
                    blobs.append(pickle.dumps(index))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        run_threads([inserter, pickler])
        assert not errors, errors[0]
        assert blobs
        q = rng.standard_normal(DIM).astype(np.float32)
        for blob in blobs[:: max(1, len(blobs) // 8)]:
            clone = pickle.loads(blob)
            result = clone.topk_search(q, 3)
            assert len(result.ids) == min(3, len(clone))


class TestTelemetryAttribution:
    def test_concurrent_observations_match_serial(self, rng):
        """Per-search counters come from the query context, so the histogram
        of observed distance computations is identical however the same
        search set is scheduled across threads."""
        index, _ = build_index(rng)
        queries = rng.standard_normal((24, DIM)).astype(np.float32)

        serial = Telemetry()
        with use_telemetry(serial):
            for q in queries:
                index.topk_search(q, 5, ef=48)
        want = serial.registry.snapshot()["histograms"]

        concurrent = Telemetry()
        barrier = threading.Barrier(6)

        def worker(tid: int) -> None:
            barrier.wait()
            for qi in range(tid, len(queries), 6):
                index.topk_search(queries[qi], 5, ef=48)

        with use_telemetry(concurrent):
            run_threads([lambda tid=t: worker(tid) for t in range(6)])
        got = concurrent.registry.snapshot()["histograms"]

        for name in ("hnsw.distance_computations", "hnsw.hops"):
            assert got[name]["count"] == want[name]["count"] == len(queries)
            assert got[name]["sum"] == want[name]["sum"]
            assert got[name]["min"] == want[name]["min"]
            assert got[name]["max"] == want[name]["max"]


class TestLazyColumnCopy:
    @pytest.mark.parametrize("metric", [Metric.L2, Metric.COSINE])
    def test_racing_first_fused_batches_agree(self, rng, metric):
        """Two threads race the first fused batch on one snapshot: both may
        build the scan kernel and its column copy, one wins each write, and
        both answers equal a serial batch's."""
        embedding = EmbeddingType("emb", DIM, metric=metric, index=IndexType.FLAT, index_params={})
        store = EmbeddingStore("Doc", embedding, segment_size=512)
        store.bulk_load(np.arange(500), rng.standard_normal((500, DIM)).astype(np.float32), tid=1)
        queries = rng.standard_normal((8, DIM)).astype(np.float32)
        want = store.search_segment_batch(0, queries, 10, snapshot_tid=1)
        snap = store.segment(0).current_snapshot()
        for _ in range(20):
            snap._kernel = None  # as bulk_load leaves it: the next batch rebuilds
            barrier = threading.Barrier(2)
            got = [None, None]

            def worker(slot: int) -> None:
                barrier.wait()
                got[slot] = store.search_segment_batch(0, queries, 10, snapshot_tid=1)

            run_threads([lambda slot=s: worker(slot) for s in range(2)])
            for dists, offsets in got:
                np.testing.assert_array_equal(dists, want[0])
                np.testing.assert_array_equal(offsets, want[1])
