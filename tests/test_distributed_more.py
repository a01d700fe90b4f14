"""Distributed-search tests: MVCC interplay and simulator wiring.

The distributed query is per-segment-group top-k on the owners plus a
coordinator merge (``vector_search_parts`` + ``merge_sharded_topk``); the
Fig. 9/10 model replays what ``measure_samples`` measured on the store.
"""

import numpy as np

from repro.cluster import ClusterSimulator, make_cluster, measure_samples
from repro.core.search import (
    SearchSpec,
    merge_sharded_topk,
    vector_search_parts,
)

ATTR = "Post.content_emb"


def split_search(db, snapshot, query, k, ef):
    """Groups {0, 1} and {2, 3} searched apart, then merged: top (type, vid)s."""
    spec = SearchSpec(db.service, [ATTR], query, k, ef=ef)
    parts = [
        vector_search_parts(db.service, snapshot, spec, None, groups=frozenset(groups))[0]
        for groups in ({0, 1}, {2, 3})
    ]
    return [(vertex_type, vid) for _, vertex_type, vid in merge_sharded_topk(parts, k)]


class TestDistributedWithUpdates:
    def test_search_reflects_unmerged_deltas(self, loaded_post_db):
        """Split-group searches overlay deltas like local ones do."""
        db = loaded_post_db
        target = np.full(16, 77.0, dtype=np.float32)
        with db.begin() as txn:
            txn.set_embedding("Post", 123, "content_emb", target)
        with db.snapshot() as snap:
            top = split_search(db, snap, target, 1, 64)
        assert top == [("Post", db.vid_for("Post", 123))]

    def test_old_snapshot_distributed_read(self, loaded_post_db):
        db = loaded_post_db
        vectors = db._test_vectors
        pinned = db.snapshot()
        far = np.full(16, -33.0, dtype=np.float32)
        with db.begin() as txn:
            txn.set_embedding("Post", 60, "content_emb", far)
        db.vacuum()
        post_60 = ("Post", db.vid_for("Post", 60))
        # at the pinned snapshot, post 60 is still at its original location
        assert split_search(db, pinned, vectors[60], 1, 128) == [post_60]
        # at a fresh snapshot it is not
        with db.snapshot() as snap:
            assert split_search(db, snap, vectors[60], 1, 128) != [post_60]
        pinned.release()


class TestSimulatorWiring:
    def test_simulator_uses_store_geometry(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        sim = ClusterSimulator(
            make_cluster(3, store.num_segments), dim=store.embedding.dimension, k=7
        )
        assert sim.k == 7
        assert sim.dim == 16
        placed = sorted(s for m in sim.machines for s in m.segments)
        assert placed == list(range(store.num_segments))

    def test_measure_samples_shapes(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        queries = db._test_vectors[:3]
        with db.snapshot() as snap:
            samples, results = measure_samples(
                store, queries, 5, snapshot_tid=snap.tid, ef=64
            )
        assert len(samples) == 3 and len(results) == 3
        assert all(len(r) == 5 for r in results)
        assert all(set(s) == set(range(4)) for s in samples)
