"""Tests for the tiered storage subsystem (repro/tier, DESIGN §12).

Covers the hot→cold→hot transition machinery, the budget-driven
``TierManager`` rebalancing, spill-to-disk memmapping, the MVCC
same-tid twin publish, and the headline conservation property: under a
zipfian access workload with demotions and promotions at every vacuum
boundary, no vector is ever dropped or duplicated and every search
returns exactly the full-precision answer (the scenario sizes keep the
rerank phase exhaustive, so cold results are exact, not approximate).
"""

import numpy as np
import pytest

from repro import Attribute, AttrType, Metric, TigerVectorDB
from repro.core.search import vector_search_merged
from repro.core.segment import rebuild_index
from repro.datasets.workloads import zipfian_access_sequence, zipfian_weights
from repro.errors import ReproError
from repro.index.pq import PQSearchConfig
from repro.tier import TierManager, demote_segment, promote_segment

DIM = 8
SEG = 32


def make_db(n: int = 96, dim: int = DIM, segment_size: int = SEG) -> TigerVectorDB:
    rng = np.random.default_rng(7)
    db = TigerVectorDB(segment_size=segment_size)
    db.schema.create_vertex_type(
        "Item", [Attribute("id", AttrType.INT, primary_key=True)]
    )
    db.schema.add_embedding_attribute(
        "Item", "emb", dimension=dim, model="demo", metric=Metric.L2
    )
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    db.bulk_load_vertices("Item", [{"id": i} for i in range(n)])
    db.bulk_load_embeddings("Item", "emb", list(range(n)), vectors)
    db._test_vectors = vectors
    return db


def search_ids(db, query, k, snapshot=None):
    if snapshot is not None:
        return [
            vid
            for _, _, vid in vector_search_merged(
                db.service, snapshot, ["Item.emb"], query, k
            )
        ]
    with db.snapshot() as snap:
        return search_ids(db, query, k, snapshot=snap)


def brute_ids(db, query, k):
    dists = ((db._test_vectors - query) ** 2).sum(axis=1)
    return [db.vid_for("Item", int(i)) for i in np.argsort(dists, kind="stable")[:k]]


@pytest.fixture
def db():
    database = make_db()
    yield database
    database.close()


# ---------------------------------------------------------------------------
# zipfian workload helpers (satellite: datasets + loadgen knob)
# ---------------------------------------------------------------------------


class TestZipfianWorkload:
    def test_weights_shape(self):
        w = zipfian_weights(10, skew=1.1)
        assert w.shape == (10,)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)  # rank 0 hottest, strictly decreasing

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            zipfian_weights(0)
        with pytest.raises(ValueError):
            zipfian_weights(5, skew=0.0)

    def test_sequence_deterministic_and_skewed(self):
        a = zipfian_access_sequence(20, 2000, skew=1.2, seed=3)
        b = zipfian_access_sequence(20, 2000, skew=1.2, seed=3)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < 20
        counts = np.bincount(a, minlength=20)
        assert counts[0] == counts.max()  # rank 0 dominates
        assert counts[0] > 3 * counts[10]

    def test_sequence_permuted(self):
        plain = zipfian_access_sequence(20, 500, seed=3)
        shuffled = zipfian_access_sequence(20, 500, seed=3, permute=True)
        assert not np.array_equal(plain, shuffled)
        # Still the same skew shape, just relabeled.
        assert sorted(np.bincount(plain, minlength=20)) == sorted(
            np.bincount(shuffled, minlength=20)
        )


# ---------------------------------------------------------------------------
# demote / promote transitions
# ---------------------------------------------------------------------------


class TestTransitions:
    def test_demote_then_search_exact(self, db):
        db.vacuum()
        store = db.service.store("Item", "emb")
        store.pq_config = PQSearchConfig(m=4, seed=3)
        query = db._test_vectors[11]
        before = search_ids(db, query, 5)

        for segment in store.segments():
            assert demote_segment(store, segment, store.pq_config)
            snap = segment.current_snapshot()
            assert snap.tier == "cold"
            assert snap.index is None
            assert snap.pq is not None
            with pytest.raises(ReproError):
                snap.kernel(Metric.L2)

        # Rerank candidates (5·4=20) < 32 rows/segment is not exhaustive,
        # so compare against brute truth instead of luck: top-1 must hold
        # and the full set must match the hot answer (well-separated data
        # keeps phase 1 from dropping true neighbours at this scale).
        after = search_ids(db, query, 5)
        assert after == before == brute_ids(db, query, 5)

    def test_demote_is_idempotent_and_promote_round_trips(self, db):
        db.vacuum()
        store = db.service.store("Item", "emb")
        segment = store.segment(0)
        assert demote_segment(store, segment)
        assert not demote_segment(store, segment)  # already cold
        assert promote_segment(store, segment)
        assert not promote_segment(store, segment)  # already hot
        snap = segment.current_snapshot()
        assert snap.tier == "hot" and snap.index is not None and snap.pq is None
        query = db._test_vectors[2]
        assert search_ids(db, query, 5) == brute_ids(db, query, 5)

    def test_same_tid_twin_and_gc(self, db):
        db.vacuum()
        store = db.service.store("Item", "emb")
        segment = store.segment(0)
        hot = segment.current_snapshot()
        assert demote_segment(store, segment)
        cold = segment.current_snapshot()
        assert cold.tid == hot.tid  # tier twins never invent a version
        assert hot in segment._retired  # pinned readers can still reach it
        dropped = segment.gc_snapshots(cold.tid)
        assert dropped >= 1 and hot not in segment._retired

    def test_pinned_reader_search_during_demotion(self, db):
        db.vacuum()
        store = db.service.store("Item", "emb")
        query = db._test_vectors[40]
        with db.snapshot() as pinned:
            truth = search_ids(db, query, 5, snapshot=pinned)
            for segment in store.segments():
                demote_segment(store, segment)
            got = search_ids(db, query, 5, snapshot=pinned)
        assert got == truth

    def test_spill_to_memmap(self, db, tmp_path):
        db.vacuum()
        store = db.service.store("Item", "emb")
        segment = store.segment(0)
        raw = np.array(segment.current_snapshot().vectors)
        assert demote_segment(store, segment, spill_dir=tmp_path)
        snap = segment.current_snapshot()
        assert isinstance(snap.vectors, np.memmap)
        np.testing.assert_array_equal(np.asarray(snap.vectors), raw)
        assert list(tmp_path.glob("Item.emb.seg0.*.npy"))
        query = db._test_vectors[5]
        assert search_ids(db, query, 5) == brute_ids(db, query, 5)

    def test_race_lost_install_abandons(self, db):
        db.vacuum()
        store = db.service.store("Item", "emb")
        segment = store.segment(0)
        snap = segment.current_snapshot()
        # A concurrent merge publishes a newer snapshot between the build
        # and the install: simulate by pre-installing tid+1, then asking
        # install_snapshot for the stale twin directly.
        newer = type(snap)(
            tid=snap.tid + 1,
            index=snap.index,
            vectors=snap.vectors,
            present=snap.present.copy(),
        )
        segment.install_snapshot(newer)
        with pytest.raises(ReproError):
            segment.install_snapshot(snap)
        assert segment.current_snapshot() is newer

    def test_rebuild_index_covers_present_rows(self, db):
        db.vacuum()
        store = db.service.store("Item", "emb")
        snap = store.segment(0).current_snapshot()
        index = rebuild_index(store.embedding, np.asarray(snap.vectors), snap.present)
        assert len(index) == int(snap.present.sum())

    @pytest.mark.parametrize("spill", [False, True], ids=["in-memory", "spilled"])
    def test_bulk_load_into_cold_segment(self, db, tmp_path, spill):
        db.vacuum()
        store = db.service.store("Item", "emb")
        segment = store.segment(0)
        assert demote_segment(store, segment, spill_dir=tmp_path if spill else None)
        cold = segment.current_snapshot()
        before = np.array(cold.vectors[3])
        moved = np.full(DIM, 50.0, dtype=np.float32)
        db.bulk_load_embeddings("Item", "emb", [3], moved.reshape(1, -1))
        # The load lands in a hot copy; the cold snapshot is not written.
        snap = segment.current_snapshot()
        assert snap.tier == "hot" and snap.index is not None
        assert snap.tid >= cold.tid and cold in segment._retired
        np.testing.assert_array_equal(np.asarray(cold.vectors[3]), before)
        vid = db.vid_for("Item", 3)
        np.testing.assert_array_equal(store.get_embedding(vid), moved)
        db._test_vectors[3] = moved
        assert search_ids(db, moved, 1) == [vid]
        query = db._test_vectors[20]
        assert search_ids(db, query, 5) == brute_ids(db, query, 5)

    def test_vacuum_rehydrates_cold_segment(self, db):
        db.vacuum()
        store = db.service.store("Item", "emb")
        demote_segment(store, store.segment(0))
        moved = np.full(DIM, 50.0, dtype=np.float32)
        with db.begin() as txn:
            txn.set_embedding("Item", 3, "emb", moved)  # lives in segment 0
        db.vacuum()
        snap = store.segment(0).current_snapshot()
        assert snap.tier == "hot" and snap.index is not None
        db._test_vectors[3] = moved
        assert search_ids(db, moved, 1) == [db.vid_for("Item", 3)]


# ---------------------------------------------------------------------------
# tier manager
# ---------------------------------------------------------------------------


class TestTierManager:
    def test_validation(self, db):
        with pytest.raises(ValueError):
            TierManager(db.service, budget_bytes=-1)
        with pytest.raises(ValueError):
            TierManager(db.service, budget_bytes=0, ewma_alpha=0.0)

    def test_budget_packs_hottest_first(self, db):
        db.vacuum()
        seg_bytes = SEG * DIM * 4
        manager = db.enable_tiering(budget_bytes=seg_bytes)  # room for one
        key = ("Item", "emb")
        for _ in range(10):
            manager.record_access(key, 2)
        manager.record_access(key, 0)
        summary = manager.rebalance()
        assert summary["hot"] == 1 and summary["cold"] == 2
        assert summary["demoted"] == 2 and summary["promoted"] == 0
        assert summary["spilled_bytes"] == 0  # no spill dir: raw stays resident
        rows = {r["seg_no"]: r for r in manager.residency()["Item.emb"]}
        assert rows[2]["tier"] == "hot"
        assert rows[0]["tier"] == rows[1]["tier"] == "cold"
        # Accounting: hot raw + cold (codes + tables + unspilled raw).
        store = db.service.store("Item", "emb")
        expected = seg_bytes + sum(
            s.current_snapshot().pq.memory_bytes + seg_bytes
            for s in store.segments()
            if s.current_snapshot().tier == "cold"
        )
        assert summary["resident_bytes"] == expected

    def test_promotion_when_budget_grows(self, db):
        db.vacuum()
        manager = db.enable_tiering(budget_bytes=0)
        assert manager.rebalance()["cold"] == 3
        manager.budget_bytes = 10 * SEG * DIM * 4
        summary = manager.rebalance()
        assert summary["hot"] == 3 and summary["promoted"] == 3
        query = db._test_vectors[1]
        assert search_ids(db, query, 5) == brute_ids(db, query, 5)

    def test_ewma_decay(self, db):
        db.vacuum()
        manager = db.enable_tiering(budget_bytes=0, ewma_alpha=0.3)
        key = ("Item", "emb")
        for _ in range(10):
            manager.record_access(key, 1)
        manager.rebalance()
        heat = {r["seg_no"]: r["heat"] for r in manager.residency()["Item.emb"]}
        assert heat[1] == pytest.approx(3.0)  # 0.3 · 10
        manager.rebalance()  # no new accesses: decay
        heat = {r["seg_no"]: r["heat"] for r in manager.residency()["Item.emb"]}
        assert heat[1] == pytest.approx(2.1)  # 0.7 · 3.0

    def test_access_hook_feeds_heat(self, db):
        db.vacuum()
        manager = db.enable_tiering(budget_bytes=10**9)
        search_ids(db, db._test_vectors[0], 3)
        assert manager.stats.accesses == 3  # one bump per probed segment

    def test_vacuum_boundary_rebalances(self, db):
        db.vacuum()
        db.enable_tiering(budget_bytes=0)
        report = db.vacuum()
        assert report["tier"]["cold"] == 3
        assert db.tier_manager.stats.rebalances >= 1

    def test_stats_snapshot_surface(self, db):
        db.vacuum()
        manager = db.enable_tiering(budget_bytes=123)
        manager.rebalance()
        snap = manager.stats_snapshot()
        assert snap["budget_bytes"] == 123
        assert snap["cold_segments"] == 3
        assert snap["rebalances"] == 1

    def test_under_budget_everything_stays_hot_and_identical(self, db):
        db.vacuum()
        query = db._test_vectors[9]
        with db.snapshot() as snap:
            before = vector_search_merged(db.service, snap, ["Item.emb"], query, 5)
        db.enable_tiering(budget_bytes=10**9)
        db.vacuum()
        with db.snapshot() as snap:
            after = vector_search_merged(db.service, snap, ["Item.emb"], query, 5)
        assert after == before  # distances bit-identical: tiering never engaged
        for segment in db.service.store("Item", "emb").segments():
            assert segment.current_snapshot().tier == "hot"

    def test_spill_accounting(self, db, tmp_path):
        db.vacuum()
        manager = db.enable_tiering(budget_bytes=0, spill_dir=tmp_path)
        summary = manager.rebalance()
        assert summary["spilled_bytes"] == 3 * SEG * DIM * 4
        # Only quantized bytes stay resident once raw rows are memmapped.
        store = db.service.store("Item", "emb")
        expected = sum(
            s.current_snapshot().pq.memory_bytes for s in store.segments()
        )
        assert summary["resident_bytes"] == expected
        rows = manager.residency()["Item.emb"]
        assert all(r["spilled"] for r in rows)


# ---------------------------------------------------------------------------
# conservation under zipfian load (ISSUE 8 acceptance)
# ---------------------------------------------------------------------------


class TestZipfianConservation:
    def test_no_vector_dropped_or_duplicated_across_rebalances(self):
        db = make_db(n=160, dim=DIM, segment_size=SEG)  # 5 segments
        try:
            db.vacuum()
            manager = db.enable_tiering(
                budget_bytes=2 * SEG * DIM * 4,  # room for 2 of 5 segments
                pq=PQSearchConfig(m=4, seed=11),
            )
            vectors = db._test_vectors
            ranks = zipfian_access_sequence(160, 120, skew=1.2, seed=9)
            for round_no in range(6):
                for item in ranks[round_no * 20 : (round_no + 1) * 20]:
                    got = search_ids(db, vectors[int(item)], 3)
                    assert got[0] == db.vid_for("Item", int(item))
                db.vacuum()  # fold heat, demote/promote under budget
                summary = manager.stats
                # Every vector stays findable: a full sweep returns each id
                # exactly once, whatever the current hot/cold split is.
                everything = search_ids(db, np.zeros(DIM, dtype=np.float32), 160)
                assert sorted(everything) == sorted(
                    db.vid_for("Item", i) for i in range(160)
                )
            assert summary.demotions >= 3  # the budget actually binds
            tiers = {
                s.current_snapshot().tier
                for s in db.service.store("Item", "emb").segments()
            }
            assert tiers == {"hot", "cold"}
        finally:
            db.close()
