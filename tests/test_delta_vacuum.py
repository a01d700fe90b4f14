"""Tests for the vector delta store and the two-stage vacuum."""

import numpy as np
import pytest

from repro.core.delta import DELETE, UPSERT, DeltaRecord, DeltaStore
from repro.errors import ReproError


def rec(action, vid, tid, dim=4):
    vector = np.full(dim, float(vid), dtype=np.float32) if action == UPSERT else None
    return DeltaRecord(action, vid, tid, vector)


class TestDeltaRecord:
    def test_schema_fields(self):
        r = rec(UPSERT, 3, 7)
        assert (r.action, r.vid, r.tid) == (UPSERT, 3, 7)
        assert r.vector is not None

    def test_upsert_requires_vector(self):
        with pytest.raises(ReproError):
            DeltaRecord(UPSERT, 1, 1, None)

    def test_invalid_action(self):
        with pytest.raises(ReproError):
            DeltaRecord("frobnicate", 1, 1, None)


class TestDeltaStore:
    def test_append_and_window(self):
        store = DeltaStore()
        store.append([rec(UPSERT, 1, 1), rec(UPSERT, 2, 2), rec(DELETE, 1, 3)])
        assert len(store) == 3
        window = store.records_between(1, 2)
        assert [r.tid for r in window] == [2]
        assert store.max_tid == 3

    def test_tid_order_enforced(self):
        store = DeltaStore()
        store.append([rec(UPSERT, 1, 5)])
        with pytest.raises(ReproError):
            store.append([rec(UPSERT, 2, 3)])

    def test_cut_detaches_prefix(self):
        store = DeltaStore()
        store.append([rec(UPSERT, i, i + 1) for i in range(5)])
        dfile = store.prepare_cut(3)
        assert dfile is not None
        store.commit_cut(dfile)
        assert [r.tid for r in dfile] == [1, 2, 3]
        assert dfile.from_tid == 0 and dfile.to_tid == 3
        assert len(store) == 2
        assert store.flushed_tid == 3

    def test_cut_nothing_new(self):
        store = DeltaStore()
        store.append([rec(UPSERT, 1, 1)])
        dfile = store.prepare_cut(1)
        assert dfile is not None
        store.commit_cut(dfile)
        assert store.prepare_cut(1) is None

    def test_cut_empty_window_advances_tid(self):
        store = DeltaStore()
        assert store.prepare_cut(10) is None
        assert store.flushed_tid == 10


class TestVacuumEndToEnd:
    def test_two_stage_vacuum(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        # new updates since the fixture's vacuum
        with db.begin() as txn:
            txn.set_embedding("Post", 0, "content_emb", np.ones(16, np.float32))
            txn.set_embedding("Post", 1, "content_emb", np.ones(16, np.float32) * 2)
        assert len(store.delta_store) == 2
        flushed = db.vacuum_manager.delta_merge(store)
        assert flushed == 2
        assert len(store.delta_files) == 1
        assert len(store.delta_store) == 0
        merged = db.vacuum_manager.index_merge(store)
        assert merged == 2
        assert store.delta_files == []
        # the merged value is served from the index snapshot now
        assert np.allclose(store.get_embedding(db.vid_for("Post", 0)), 1.0)

    def test_vacuum_stats(self, loaded_post_db):
        db = loaded_post_db
        with db.begin() as txn:
            txn.set_embedding("Post", 5, "content_emb", np.zeros(16, np.float32))
        db.vacuum()
        stats = db.vacuum_manager.stats
        assert stats.delta_merges >= 1
        assert stats.index_merges >= 1
        assert stats.records_merged >= 1
        assert stats.snapshots_installed >= 1

    def test_old_snapshot_still_readable_during_merge(self, loaded_post_db):
        db = loaded_post_db
        vectors = db._test_vectors
        snap = db.snapshot()  # pin the pre-update state
        with db.begin() as txn:
            txn.set_embedding("Post", 0, "content_emb", np.ones(16, np.float32) * 9)
        db.vacuum()
        store = db.service.store("Post", "content_emb")
        vid = db.vid_for("Post", 0)
        old = store.get_embedding(vid, snapshot_tid=snap.tid)
        assert np.allclose(old, vectors[0])
        new = store.get_embedding(vid)
        assert np.allclose(new, 9.0)
        snap.release()

    def test_background_vacuum_threads(self, loaded_post_db):
        import time

        db = loaded_post_db
        db.vacuum_manager.start(delta_interval=0.01, index_interval=0.02)
        try:
            with db.begin() as txn:
                txn.set_embedding("Post", 3, "content_emb", np.ones(16, np.float32))
            store = db.service.store("Post", "content_emb")
            deadline = time.time() + 5.0
            while time.time() < deadline and store.pending_delta_count() > 0:
                time.sleep(0.02)
            assert store.pending_delta_count() == 0
        finally:
            db.vacuum_manager.stop()


class TestIndexMergeRecordOrder:
    """A vacuum's index merge is one pass per segment, in record order."""

    @staticmethod
    def demo_db():
        from repro.serve.cli import build_demo_db

        return build_demo_db(800, 8, 1, 400)

    def test_delete_then_set_survives_the_merge(self):
        db = self.demo_db()
        q = np.random.default_rng(5).standard_normal(8).astype(np.float32) * 3
        with db.begin() as txn:
            txn.delete_embedding("Item", 3, "emb")
        with db.begin() as txn:
            txn.set_embedding("Item", 3, "emb", q)
        assert sorted(db.vector_search(["Item.emb"], q, 1)) == [("Item", 3)]
        db.vacuum()
        # The later upsert decides: the offset is live in the index too.
        assert sorted(db.vector_search(["Item.emb"], q, 1)) == [("Item", 3)]
        with db.begin() as txn:
            txn.set_embedding("Item", 4, "emb", q + 1)
        with db.begin() as txn:
            txn.delete_embedding("Item", 4, "emb")
        db.vacuum()
        store = db.service.store("Item", "emb")
        assert store.get_embedding(db.vid_for("Item", 4)) is None
        assert ("Item", 4) not in db.vector_search(["Item.emb"], q + 1, 5)
        db.close()

    def test_same_commits_give_byte_identical_graphs(self):
        graphs = []
        for _ in range(2):
            db = self.demo_db()
            rng = np.random.default_rng(9)
            index = db.service.store("Item", "emb").segment(0).index
            updates_before = index.stats.num_updates
            for pk in range(0, 40, 4):
                with db.begin() as txn:
                    for offset in range(4):
                        txn.set_embedding("Item", pk + offset, "emb", rng.standard_normal(8))
            with db.begin() as txn:
                txn.delete_embedding("Item", 50, "emb")
            db.vacuum()
            index = db.service.store("Item", "emb").segment(0).index
            assert index.stats.num_updates - updates_before >= 4  # rows rewritten
            graphs.append(
                (index._links0.tobytes(), index._links0_cnt.tobytes(), index._links_upper)
            )
            db.close()
        assert graphs[0] == graphs[1]
