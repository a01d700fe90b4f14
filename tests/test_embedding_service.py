"""Tests for embedding segments, the embedding service, and the segment loop."""

import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Attribute, AttrType, TigerVectorDB
from repro.core import action
from repro.core.embedding import EmbeddingType
from repro.core.search import SearchSpec, vector_search_batch, vector_search_merged
from repro.core.service import EmbeddingStore
from repro.index.bitmap import Bitmap
from repro.types import Metric, batch_distances


class TestDecoupledStorage:
    def test_embeddings_not_in_vertex_rows(self, loaded_post_db):
        """Decoupling (Sec. 4.2): vertex rows never contain vector values."""
        db = loaded_post_db
        with db.snapshot() as snap:
            row = snap.get_vertex("Post", db.vid_for("Post", 0))
        assert "content_emb" not in row

    def test_segment_mirrors_vertex_partition(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        # 200 posts / segment_size 64 -> 4 segments on both sides
        with db.snapshot() as snap:
            assert snap.num_segments("Post") == 4
        assert store.num_segments == 4
        assert store.segment(0).capacity == 64

    def test_get_embedding_roundtrip(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        for pk in (0, 63, 64, 199):  # segment boundaries
            vid = db.vid_for("Post", pk)
            assert np.allclose(store.get_embedding(vid), db._test_vectors[pk])

    def test_get_embedding_missing(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        assert store.get_embedding(10_000) is None

    def test_delete_embedding_only(self, loaded_post_db):
        db = loaded_post_db
        with db.begin() as txn:
            txn.delete_embedding("Post", 5, "content_emb")
        store = db.service.store("Post", "content_emb")
        assert store.get_embedding(db.vid_for("Post", 5)) is None
        # the vertex itself is untouched
        with db.snapshot() as snap:
            assert snap.vid_for_pk("Post", 5) is not None

    def test_live_count(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        assert store.live_count() == 200


class TestMVCCOverlay:
    def test_unvacuumed_update_visible(self, loaded_post_db):
        db = loaded_post_db
        with db.begin() as txn:
            txn.set_embedding("Post", 7, "content_emb", np.full(16, 3.0, np.float32))
        store = db.service.store("Post", "content_emb")
        assert np.allclose(store.get_embedding(db.vid_for("Post", 7)), 3.0)

    def test_unvacuumed_delete_hides(self, loaded_post_db):
        db = loaded_post_db
        with db.begin() as txn:
            txn.delete_embedding("Post", 7, "content_emb")
        store = db.service.store("Post", "content_emb")
        assert store.get_embedding(db.vid_for("Post", 7)) is None

    def test_search_combines_index_and_deltas(self, loaded_post_db):
        """Sec 4.3: queries combine snapshot search with delta brute force."""
        db = loaded_post_db
        target = np.full(16, 40.0, np.float32)
        with db.begin() as txn:
            txn.set_embedding("Post", 150, "content_emb", target)
        result = db.vector_search(["Post.content_emb"], target, k=1)
        assert next(iter(result)) == ("Post", db.vid_for("Post", 150))

    def test_search_excludes_deleted_delta(self, loaded_post_db):
        db = loaded_post_db
        vectors = db._test_vectors
        with db.begin() as txn:
            txn.delete_embedding("Post", 30, "content_emb")
        result = db.vector_search(["Post.content_emb"], vectors[30], k=3)
        assert ("Post", db.vid_for("Post", 30)) not in result

    def test_stale_index_value_not_returned(self, loaded_post_db):
        """An offset overwritten by a delta must not surface its old vector."""
        db = loaded_post_db
        vectors = db._test_vectors
        far = np.full(16, -50.0, np.float32)
        with db.begin() as txn:
            txn.set_embedding("Post", 42, "content_emb", far)
        # query at the OLD location: post 42 must not be near it anymore
        result = db.vector_search(["Post.content_emb"], vectors[42], k=5)
        members = set(result)
        assert ("Post", db.vid_for("Post", 42)) not in members


class TestSegmentSearch:
    def test_bruteforce_threshold_flip(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        # tiny bitmap -> below threshold -> brute force
        bitmap = Bitmap.from_offsets(64, [1, 2, 3])
        with db.snapshot() as snap:
            out = store.search_segment(
                0, db._test_vectors[1], 2, snap.tid, bitmap=bitmap, bf_threshold=10
            )
        assert out.used_bruteforce
        assert out.offsets[0] == 1

    def test_index_path_above_threshold(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        with db.snapshot() as snap:
            out = store.search_segment(
                0, db._test_vectors[1], 2, snap.tid, bf_threshold=1
            )
        assert not out.used_bruteforce

    def test_bruteforce_matches_index(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        q = db._test_vectors[10]
        with db.snapshot() as snap:
            bf = store.search_segment(0, q, 5, snap.tid, bf_threshold=10_000)
            ix = store.search_segment(0, q, 5, snap.tid, ef=256, bf_threshold=0)
        assert bf.offsets == ix.offsets


@pytest.fixture
def four_workers(monkeypatch):
    """A fresh four-worker shared segment pool, shut down after the test."""
    monkeypatch.setattr(action, "WORKERS", 4)
    monkeypatch.setattr(action, "_POOL", None)
    yield
    if action._POOL is not None:
        action._POOL.shutdown(wait=True)


def _record_segment_threads(store, monkeypatch) -> list[str]:
    """Wrap ``store.search_segment`` to log the thread each call runs on."""
    names: list[str] = []
    original = store.search_segment

    def recorded(*args, **kwargs):
        names.append(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(store, "search_segment", recorded)
    return names


class TestEmbeddingAction:
    def test_global_merge_matches_bruteforce(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        q = db._test_vectors[99]
        with db.snapshot() as snap:
            pairs, _ = action.topk(store, q, 10, snap.tid, ef=256)
        dists = batch_distances(q, db._test_vectors, Metric.L2)
        expected = set(np.argsort(dists)[:10].tolist())
        got = {int(db.pk_for("Post", vid)) for _, vid in pairs}
        assert len(got & expected) >= 9
        assert pairs == sorted(pairs)

    def test_stats_segments_touched(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        with db.snapshot() as snap:
            _, stats = action.topk(store, db._test_vectors[0], 5, snap.tid)
        assert stats.segments_touched == 4

    def test_hnsw_traversals_run_inline(self, loaded_post_db, four_workers):
        """Fan-out rule: a traversal holds the GIL, so its work estimate is 0
        and the search never touches the pool; a pre-filter under the
        brute-force flip is a scan and is priced rows × dimension."""
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        with db.snapshot() as snap:
            action.topk(store, db._test_vectors[0], 5, snap.tid)
            action.topk_batch(store, db._test_vectors[:8], 5, snap.tid)
        assert action._POOL is None
        assert store.scan_work(None) == 0
        assert store.scan_work(Bitmap.full(64)) == 0
        few = Bitmap.from_offsets(64, range(store.bf_threshold - 1))
        assert store.scan_work(few) == (store.bf_threshold - 1) * 16

    def test_traversals_run_one_at_a_time(self, loaded_post_db, monkeypatch):
        """HNSW traversals hold the GIL, so the store admits one at a time:
        threads searching at once must never be inside the index together."""
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        index = store.segment(0).index
        inside, worst, guard = [0], [0], threading.Lock()
        original = index.topk_search

        def watched(*args, **kwargs):
            with guard:
                inside[0] += 1
                worst[0] = max(worst[0], inside[0])
            time.sleep(0.002)  # let another thread arrive while this one is inside
            try:
                return original(*args, **kwargs)
            finally:
                with guard:
                    inside[0] -= 1

        monkeypatch.setattr(index, "topk_search", watched)
        with db.snapshot() as snap:
            threads = [
                threading.Thread(
                    target=lambda q=q: store.search_segment(0, q, 5, snap.tid)
                )
                for q in db._test_vectors[:6]
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert worst[0] == 1

    def test_pooled_batch_scan_equals_inline(self, loaded_post_db, monkeypatch, four_workers):
        """Scans priced above the hand-off go to the pool — sharing the
        batch's one query context — and return what the inline scans do."""
        db = loaded_post_db
        queries = db._test_vectors[:8]
        inline = db.vector_search_batch(["Post.content_emb"], queries, 5)
        monkeypatch.setattr(action, "HANDOFF_WORK", 0)
        store = db.service.store("Post", "content_emb")
        with db.snapshot() as snap:
            blocks = action.topk_batch(store, queries, 5, snap.tid)
        assert action._POOL is not None
        assert len(blocks) == store.num_segments
        pooled = db.vector_search_batch(["Post.content_emb"], queries, 5)
        assert [sorted(got) for got in pooled] == [sorted(want) for want in inline]

    def test_pooled_per_query_scans_equal_inline(self, loaded_post_db, monkeypatch, four_workers):
        """A per-query top-k whose pre-filter is under ``bf_threshold`` on
        every segment, and a GSQL range block over the same filter: priced
        above the hand-off, their segment scans run on the pool and return
        exactly what they return inline."""
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        q = db._test_vectors[3]
        masks = {
            "Post": [
                Bitmap.from_offsets(64, range(0, 64, 2)) for _ in range(store.num_segments)
            ]
        }
        assert all(bm.count() < store.bf_threshold for bm in masks["Post"])
        gsql = (
            'SELECT s FROM (s:Post) WHERE s.language = "fr" AND '
            "VECTOR_DIST(s.content_emb, qv) < 20.0;"
        )

        def run():
            with db.snapshot() as snap:
                top = vector_search_merged(
                    db.service, snap, ["Post.content_emb"], q, 7, filter=masks
                )
            ranking = db.run_gsql(gsql, qv=q.tolist()).result.ranking
            return top, ranking

        inline_top, inline_range = run()
        names = _record_segment_threads(store, monkeypatch)
        monkeypatch.setattr(action, "HANDOFF_WORK", 0)
        pooled_top, pooled_range = run()
        assert pooled_top == inline_top and len(pooled_top) == 7
        assert pooled_range == inline_range and inline_range
        assert names and all(name.startswith("segment") for name in names)

    def test_empty_bitmap_segments_skipped(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        bitmaps = [Bitmap.empty(64) for _ in range(4)]
        bitmaps[2] = Bitmap.from_offsets(64, range(10))
        with db.snapshot() as snap:
            pairs, stats = action.topk(
                store, db._test_vectors[0], 5, snap.tid, bitmaps=bitmaps
            )
        assert stats.segments_touched == 1
        # results come only from segment 2 (vids 128..137)
        assert all(128 <= vid < 138 for _, vid in pairs)

    def test_range_action(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        q = db._test_vectors[0]
        with db.snapshot() as snap:
            pairs, _ = action.range_search(store, q, 10.0, snap.tid, ef=256)
        dists = batch_distances(q, db._test_vectors, Metric.L2)
        exact = set(np.flatnonzero(dists < 10.0).tolist())
        got = {int(db.pk_for("Post", vid)) for _, vid in pairs}
        assert got.issubset(exact)
        assert len(got) >= 0.8 * len(exact)

    def test_default_ef_range_recalls_what_default_ef_topk_does(self, rng):
        """No ``ef`` means DEFAULT_EF for a range probe too, not ``ef = k``:
        at the radius of the k-th neighbour a range search returns everything
        ``topk_search(q, k)`` found — index-level and through the action."""
        dim, rows, k = 128, 1500, 12
        centers = 0.5 * rng.standard_normal((30, dim))
        data = (centers[rng.integers(0, 30, rows)] + rng.standard_normal((rows, dim)))
        embedding = EmbeddingType(
            "emb", dim, metric=Metric.L2, index_params={"M": 4, "ef_construction": 32}
        )
        store = EmbeddingStore("Doc", embedding, segment_size=2048)
        store.bulk_load(np.arange(rows), data, tid=1)
        index = store.segment(0).index
        for pick in rng.integers(0, rows, 20):
            q = (data[pick] + 0.5 * rng.standard_normal(dim)).astype(np.float32)
            top = index.topk_search(q, k)
            radius = float(np.nextafter(top.distances[-1], np.float32(np.inf)))
            want = set(top.ids.tolist())
            assert want <= set(index.range_search(q, radius).ids.tolist())
            pairs, _ = action.range_search(store, q, radius, snapshot_tid=1)
            assert want <= {vid for _, vid in pairs}


# --------------------------------------------------------------------------
# the array-valued fused exact scan vs the per-query exact scan
# --------------------------------------------------------------------------

_SEG, _DIM, _ROWS = 16, 8, 40  # segments of 16, 16 and 8 rows
_ATOL = 8 * float(np.finfo(np.float32).eps)  # a few float32 roundings of a COSINE distance in [0, 2]


def _scan_db(metric: Metric, draw) -> TigerVectorDB:
    """Three segments: 0 with an overlay, 1 full, 2 short.

    ``draw`` yields small-integer vectors for L2 / IP — every distance is then
    exact in float32 whatever the summation order, so an order difference is
    never rounding — and Gaussian ones for COSINE, whose integer vectors would
    collide on equal cosines by the dozen.
    """
    db = TigerVectorDB(segment_size=_SEG)
    db.schema.create_vertex_type("Item", [Attribute("id", AttrType.INT, primary_key=True)])
    db.schema.add_embedding_attribute("Item", "emb", dimension=_DIM, model="t", metric=metric)
    vectors = draw(_ROWS)
    vectors[9] = vectors[3]  # two offsets of segment 0 hold one vector
    vectors[37] = vectors[33]  # and two of segment 2
    db.bulk_load_vertices("Item", [{"id": i} for i in range(_ROWS)])
    db.bulk_load_embeddings("Item", "emb", list(range(_ROWS)), vectors)
    with db.begin() as txn:  # left unvacuumed: these are the overlay
        txn.set_embedding("Item", 2, "emb", draw(1)[0])
        txn.set_embedding("Item", 5, "emb", vectors[3])  # a third copy, in the overlay
        txn.set_embedding("Item", 20, "emb", draw(1)[0])
        txn.delete_embedding("Item", 7, "emb")
        txn.delete_embedding("Item", 36, "emb")
    return db


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    metric=st.sampled_from([Metric.L2, Metric.COSINE, Metric.IP]),
    num_queries=st.sampled_from([1, 2, 8, 65]),
    k_offset=st.sampled_from([-3, 0, 3]),
)
def test_fused_exact_scan_equals_per_query_scan(seed, metric, num_queries, k_offset):
    rng = np.random.default_rng(seed)

    def draw(count: int) -> np.ndarray:
        if metric is Metric.COSINE:
            return rng.standard_normal((count, _DIM)).astype(np.float32)
        return rng.integers(-6, 7, size=(count, _DIM)).astype(np.float32)

    db = _scan_db(metric, draw)
    try:
        store = db.service.store("Item", "emb")
        store.bf_threshold = _SEG + 1  # the solo path brute-forces every segment
        queries = draw(num_queries)
        with db.snapshot() as snap:
            for seg_no in range(store.num_segments):
                live = sum(
                    store.get_embedding(seg_no * _SEG + off, snap.tid) is not None
                    for off in range(_SEG)
                )
                k = live + k_offset  # below / equal to / above the live rows
                dists, offsets = store.search_segment_batch(seg_no, queries, k, snap.tid)
                assert dists.shape == offsets.shape == (num_queries, min(k, live))
                for qi, query in enumerate(queries):
                    solo = store.search_segment(seg_no, query, k, snap.tid)
                    np.testing.assert_allclose(dists[qi], solo.distances, rtol=1e-6, atol=_ATOL)
                    # Same offsets in the same order.  Only where a tie
                    # straddles the k-th place may the two differ: each scan's
                    # argpartition keeps some k of the tied rows, by offset.
                    got = offsets[qi].tolist()
                    head = sum(d < solo.distances[-1] for d in solo.distances)
                    assert got[:head] == solo.offsets[:head]
                    assert got[head:] == sorted(got[head:])
                    if k >= live:
                        assert got == solo.offsets
            k = store.live_count() + k_offset
            specs = [SearchSpec(db.service, ["Item.emb"], query, k) for query in queries]
            fused = vector_search_batch(db.service, snap, specs)
            for query, got in zip(queries, fused):
                want = vector_search_merged(db.service, snap, ["Item.emb"], query, k)
                assert [(t, vid) for _, t, vid in got] == [(t, vid) for _, t, vid in want]
                np.testing.assert_allclose(
                    [dist for dist, _, _ in got], [dist for dist, _, _ in want], rtol=1e-6, atol=_ATOL
                )
    finally:
        db.close()


@pytest.mark.parametrize("metric", [Metric.L2, Metric.COSINE, Metric.IP])
def test_merged_distances_are_float32_values(metric, rng):
    """The segment loop merges distances without a cast: every path it
    reads — HNSW, the brute-force flip and the delta overlay — already
    yields float32 values."""
    db = _scan_db(metric, lambda count: rng.standard_normal((count, _DIM)).astype(np.float32))
    try:
        store = db.service.store("Item", "emb")
        query = rng.standard_normal(_DIM).astype(np.float32)
        with db.snapshot() as snap:
            for threshold in (0, _SEG + 1):  # segments by HNSW, then by brute force
                store.bf_threshold = threshold
                pairs, stats = action.topk(store, query, _ROWS, snap.tid, ef=_ROWS)
                assert stats.segments_bruteforce == (0 if threshold == 0 else 3)
                assert len(pairs) == _ROWS - 2  # the overlay deletes two
                assert all(dist == float(np.float32(dist)) for dist, _ in pairs)
    finally:
        db.close()


# --------------------------------------------------------------------------
# the fused scan on segments with holes: in-place columns, +inf holes, gathers
# --------------------------------------------------------------------------

_HSEG, _HDIM = 32, 16


def _holes_db(metric: Metric, rng) -> TigerVectorDB:
    """Four segments of 32 rows, one per shape the fused scan reads:

    0. fully present: every column of ``[0, hi)`` is a candidate;
    1. holes a vacuum merged in (five tombstones) plus one unvacuumed
       upsert and delete: scanned in place, the holes and the superseded
       column set to +inf;
    2. a vacuum left three of 32 rows, below the half-allowed crossover:
       the allowed rows are gathered;
    3. every snapshot row superseded by an unvacuumed upsert: only the
       overlay's columns remain.
    """
    db = TigerVectorDB(segment_size=_HSEG)
    db.schema.create_vertex_type("Item", [Attribute("id", AttrType.INT, primary_key=True)])
    db.schema.add_embedding_attribute("Item", "emb", dimension=_HDIM, model="t", metric=metric)
    rows = 4 * _HSEG
    db.bulk_load_vertices("Item", [{"id": i} for i in range(rows)])
    db.bulk_load_embeddings("Item", "emb", list(range(rows)), _unit_scale(rng, rows))
    tombstones = [33, 36, 40, 41, 50] + [64 + off for off in range(_HSEG) if off not in (2, 5, 31)]
    with db.begin() as txn:
        for vid in tombstones:
            txn.delete_embedding("Item", vid, "emb")
    db.vacuum()
    with db.begin() as txn:  # left unvacuumed: these are the overlay
        txn.set_embedding("Item", 44, "emb", _unit_scale(rng, 1)[0])
        txn.delete_embedding("Item", 47, "emb")
        for vid in range(3 * _HSEG, 4 * _HSEG):
            txn.set_embedding("Item", vid, "emb", _unit_scale(rng, 1)[0])
    return db


def _unit_scale(rng, count: int) -> np.ndarray:
    """Gaussian rows of norm about 1, so a distance's rounding stays near
    float32 eps in absolute terms whatever the metric."""
    return (rng.standard_normal((count, _HDIM)) / np.sqrt(_HDIM)).astype(np.float32)


@pytest.mark.parametrize("metric", [Metric.L2, Metric.COSINE, Metric.IP])
def test_fused_scan_equals_per_query_scan_on_holes(metric):
    rng = np.random.default_rng(31)
    db = _holes_db(metric, rng)
    try:
        store = db.service.store("Item", "emb")
        store.bf_threshold = _HSEG + 1  # the solo path brute-forces every segment
        # Columns each segment's fused scan multiplies: [0, hi) in place for
        # 0, 1 and 3 (overlay aside), the three allowed rows gathered for 2.
        assert [store.fused_scan_columns(seg_no) for seg_no in range(4)] == [32, 32, 3, 32]
        assert not store.segment(1).present[[1, 4, 8, 9, 18]].any()  # merged tombstones
        seg1 = store.segment(1).current_snapshot().vectors
        # Queries next to a hole's stale row and to the superseded row: a
        # fused scan that let those columns through would rank them first.
        queries = np.concatenate(
            [
                _unit_scale(rng, 5),
                seg1[[1, 9, 12, 15]] + np.float32(1e-3),
                store.segment(2).current_snapshot().vectors[[0, 7]],
            ]
        )
        with db.snapshot() as snap:
            for seg_no in range(4):
                live = sum(
                    store.get_embedding(seg_no * _HSEG + off, snap.tid) is not None
                    for off in range(_HSEG)
                )
                for k in (3, live):
                    dists, offsets = store.search_segment_batch(seg_no, queries, k, snap.tid)
                    assert dists.shape == offsets.shape == (len(queries), min(k, live))
                    for qi, query in enumerate(queries):
                        solo = store.search_segment(seg_no, query, k, snap.tid)
                        assert offsets[qi].tolist() == solo.offsets
                        # An IP / COSINE distance near 0 is 1 + rank with
                        # rank near -1: the summation orders' difference
                        # is absolute, hence the sibling test's floor.
                        np.testing.assert_allclose(
                            dists[qi], solo.distances, rtol=1e-6, atol=_ATOL
                        )
    finally:
        db.close()
