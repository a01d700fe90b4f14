"""Advanced vacuum scenarios: retired delta files, interleavings, stats."""

import numpy as np
import pytest

from tests.conftest import make_post_db


@pytest.fixture
def db():
    database = make_post_db(segment_size=16)
    with database.begin() as txn:
        for i in range(40):
            txn.upsert_vertex("Post", i, {"language": "en"})
            txn.set_embedding(
                "Post", i, "content_emb",
                np.full(16, float(i), dtype=np.float32),
            )
    database.vacuum()
    yield database
    database.close()


class TestRetiredDeltaFiles:
    def test_pinned_reader_spans_merged_files(self, db):
        """A reader pinned between two updates still sees its version even
        after the index merge consumed the delta files (paper Sec. 4.3)."""
        store = db.service.store("Post", "content_emb")
        vid = db.vid_for("Post", 5)
        with db.begin() as txn:
            txn.set_embedding("Post", 5, "content_emb", np.full(16, 100.0, np.float32))
        pinned = db.snapshot()  # sees value 100
        with db.begin() as txn:
            txn.set_embedding("Post", 5, "content_emb", np.full(16, 200.0, np.float32))
        db.vacuum()  # folds both updates; files must be retired, not dropped
        assert store.retired_delta_files, "files should be retained for the pinned reader"
        old = store.get_embedding(vid, snapshot_tid=pinned.tid)
        assert old is not None and old[0] == 100.0
        assert store.get_embedding(vid)[0] == 200.0
        pinned.release()
        db.vacuum()  # now reclaimable
        assert store.retired_delta_files == []

    def test_search_at_pinned_snapshot(self, db):
        store = db.service.store("Post", "content_emb")
        with db.begin() as txn:
            txn.set_embedding("Post", 7, "content_emb", np.full(16, 500.0, np.float32))
        pinned = db.snapshot()
        with db.begin() as txn:
            txn.set_embedding("Post", 7, "content_emb", np.full(16, 7.0, np.float32))
        db.vacuum()
        from repro.core import action

        pairs, _ = action.topk(store, np.full(16, 500.0, np.float32), 1, pinned.tid, ef=64)
        assert pairs[0][1] == db.vid_for("Post", 7)
        pinned.release()

    def test_multiple_merge_rounds(self, db):
        store = db.service.store("Post", "content_emb")
        for round_no in range(3):
            with db.begin() as txn:
                txn.set_embedding(
                    "Post", round_no, "content_emb",
                    np.full(16, 1000.0 + round_no, np.float32),
                )
            db.vacuum()
        for round_no in range(3):
            vid = db.vid_for("Post", round_no)
            assert store.get_embedding(vid)[0] == 1000.0 + round_no
        assert store.pending_delta_count() == 0


class TestVacuumInterleavings:
    def test_delta_merge_without_index_merge(self, db):
        """Queries read flushed-but-unmerged delta files correctly."""
        store = db.service.store("Post", "content_emb")
        with db.begin() as txn:
            txn.set_embedding("Post", 9, "content_emb", np.full(16, 77.0, np.float32))
        db.vacuum_manager.delta_merge(store)
        assert store.delta_files and not len(store.delta_store)
        vid = db.vid_for("Post", 9)
        assert store.get_embedding(vid)[0] == 77.0
        result = db.vector_search(
            ["Post.content_emb"], np.full(16, 77.0, np.float32), k=1
        )
        assert next(iter(result))[1] == vid

    def test_index_merge_without_new_deltas_noop(self, db):
        store = db.service.store("Post", "content_emb")
        assert db.vacuum_manager.index_merge(store) == 0

    def test_interleaved_write_during_merge_cycle(self, db):
        store = db.service.store("Post", "content_emb")
        with db.begin() as txn:
            txn.set_embedding("Post", 1, "content_emb", np.full(16, 11.0, np.float32))
        db.vacuum_manager.delta_merge(store)
        # a write lands between the two vacuum stages
        with db.begin() as txn:
            txn.set_embedding("Post", 2, "content_emb", np.full(16, 22.0, np.float32))
        db.vacuum_manager.index_merge(store)
        assert store.get_embedding(db.vid_for("Post", 1))[0] == 11.0
        assert store.get_embedding(db.vid_for("Post", 2))[0] == 22.0  # from memory
        db.vacuum()
        assert store.get_embedding(db.vid_for("Post", 2))[0] == 22.0  # from index


class TestVacuumAccounting:
    def test_merge_seconds_recorded(self, db):
        with db.begin() as txn:
            txn.set_embedding("Post", 3, "content_emb", np.zeros(16, np.float32))
        db.vacuum()
        stats = db.vacuum_manager.stats
        assert stats.index_merge_seconds > 0
        assert stats.delta_merge_seconds >= 0

    def test_graph_vacuum_included_in_run_once(self, db):
        with db.begin() as txn:
            txn.upsert_vertex("Post", 100, {"language": "fr"})
        out = db.vacuum()
        assert out["graph_segments_rebuilt"] >= 1
