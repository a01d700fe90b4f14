"""Tests for the quantization-based index extensions (IVF-Flat and SQ8)."""

import numpy as np
import pytest

from repro.errors import VectorSearchError
from repro.index import BruteForceIndex, IVFFlatIndex, SQ8FlatIndex, create_index, kmeans
from repro.types import IndexType, Metric


@pytest.fixture
def clustered_data(rng):
    centers = rng.standard_normal((8, 16)).astype(np.float32) * 5
    assign = rng.integers(0, 8, 600)
    return (centers[assign] + rng.standard_normal((600, 16))).astype(np.float32)


class TestKMeans:
    def test_centroid_count(self, clustered_data):
        centroids = kmeans(clustered_data, 8)
        assert centroids.shape == (8, 16)

    def test_k_capped_at_n(self, rng):
        data = rng.standard_normal((3, 4)).astype(np.float32)
        assert kmeans(data, 10).shape == (3, 4)

    def test_empty_rejected(self):
        with pytest.raises(VectorSearchError):
            kmeans(np.zeros((0, 4), dtype=np.float32), 2)

    def test_recovers_separated_centers(self, rng):
        centers = np.array([[0.0] * 8, [50.0] * 8], dtype=np.float32)
        assign = rng.integers(0, 2, 200)
        data = centers[assign] + rng.standard_normal((200, 8)).astype(np.float32)
        found = kmeans(data, 2, iterations=20)
        found = found[np.argsort(found[:, 0])]
        assert np.allclose(found[0], 0.0, atol=1.0)
        assert np.allclose(found[1], 50.0, atol=1.0)


class TestIVFFlat:
    def build(self, data, **kw):
        index = IVFFlatIndex(data.shape[1], Metric.L2, nlist=8, nprobe=4, **kw)
        index.update_items(np.arange(len(data)), data)
        return index

    def test_recall_vs_bruteforce(self, clustered_data):
        index = self.build(clustered_data)
        bf = BruteForceIndex(16, Metric.L2)
        bf.update_items(np.arange(len(clustered_data)), clustered_data)
        hits = 0
        for qi in range(20):
            q = clustered_data[qi] + 0.1
            got = set(index.topk_search(q, 5, ef=8).ids.tolist())  # all lists
            exact = set(bf.topk_search(q, 5).ids.tolist())
            hits += len(got & exact)
        assert hits / 100 > 0.95

    def test_nprobe_recall_tradeoff(self, clustered_data):
        index = self.build(clustered_data)
        bf = BruteForceIndex(16, Metric.L2)
        bf.update_items(np.arange(len(clustered_data)), clustered_data)

        def recall(nprobe):
            hits = 0
            for qi in range(20):
                q = clustered_data[qi] + 0.1
                got = set(index.topk_search(q, 5, ef=nprobe).ids.tolist())
                exact = set(bf.topk_search(q, 5).ids.tolist())
                hits += len(got & exact)
            return hits / 100

        assert recall(8) >= recall(1)

    def test_exact_match(self, clustered_data):
        index = self.build(clustered_data)
        result = index.topk_search(clustered_data[42], 1, ef=8)
        assert result.ids[0] == 42

    def test_delete(self, clustered_data):
        index = self.build(clustered_data)
        index.delete_items([42])
        assert 42 not in index
        result = index.topk_search(clustered_data[42], 3, ef=8)
        assert 42 not in result.ids
        assert len(index) == 599

    def test_update_moves_vector(self, clustered_data):
        index = self.build(clustered_data)
        new = np.full(16, 99.0, dtype=np.float32)
        index.update_items([7], new.reshape(1, -1))
        assert np.allclose(index.get_embedding(7), new)
        result = index.topk_search(new, 1, ef=8)
        assert result.ids[0] == 7
        # old location no longer returns id 7
        old = index.topk_search(clustered_data[7], 10, ef=8)
        assert list(old.ids).count(7) <= 1

    def test_filter_fn(self, clustered_data):
        index = self.build(clustered_data)
        result = index.topk_search(
            clustered_data[0], 5, ef=8, filter_fn=lambda i: i % 2 == 0
        )
        assert all(i % 2 == 0 for i in result.ids)

    def test_empty_search(self):
        index = IVFFlatIndex(4, Metric.L2)
        assert len(index.topk_search(np.zeros(4, dtype=np.float32), 3)) == 0

    def test_factory(self):
        index = create_index(IndexType.IVF_FLAT, 8, Metric.L2, {"nlist": 4, "nprobe": 2})
        assert isinstance(index, IVFFlatIndex)
        assert index.nlist == 4

    def test_range_search(self, clustered_data):
        index = self.build(clustered_data)
        result = index.range_search(clustered_data[0], threshold=8.0, ef=8)
        assert np.all(result.distances < 8.0)


class TestSQ8:
    def build(self, data):
        index = SQ8FlatIndex(data.shape[1], Metric.L2)
        index.update_items(np.arange(len(data)), data)
        return index

    def test_recall_close_to_exact(self, clustered_data):
        index = self.build(clustered_data)
        bf = BruteForceIndex(16, Metric.L2)
        bf.update_items(np.arange(len(clustered_data)), clustered_data)
        hits = 0
        for qi in range(20):
            q = clustered_data[qi] + 0.05
            got = set(index.topk_search(q, 5).ids.tolist())
            exact = set(bf.topk_search(q, 5).ids.tolist())
            hits += len(got & exact)
        assert hits / 100 > 0.85  # quantization loses a little

    def test_memory_is_quarter_of_float32(self, clustered_data):
        index = self.build(clustered_data)
        float_bytes = clustered_data.nbytes
        assert index.memory_bytes == float_bytes // 4

    def test_decode_roundtrip_error_bounded(self, clustered_data):
        index = self.build(clustered_data)
        decoded = index.get_embedding(3)
        span = clustered_data.max(axis=0) - clustered_data.min(axis=0)
        assert np.all(np.abs(decoded - clustered_data[3]) <= span / 255.0 + 1e-5)

    def test_delete_swap(self, clustered_data):
        index = self.build(clustered_data)
        index.delete_items([0, 599])
        assert len(index) == 598
        assert 0 not in index

    def test_update(self, clustered_data):
        index = self.build(clustered_data)
        v = clustered_data[10] * 0.5
        index.update_items([10], v.reshape(1, -1))
        assert np.allclose(index.get_embedding(10), v, atol=0.2)

    def test_factory(self):
        index = create_index(IndexType.SQ8, 8, Metric.L2)
        assert isinstance(index, SQ8FlatIndex)

    def test_range_search(self, clustered_data):
        index = self.build(clustered_data)
        result = index.range_search(clustered_data[0], threshold=10.0)
        assert np.all(result.distances < 10.0)


class TestSharedRowTables:
    """IVF_PQ runs IVF_FLAT's table code and SQ8 runs FLAT's; the same
    interleaved update / replace / delete history must leave all four
    with consistent id <-> row bookkeeping."""

    @pytest.mark.parametrize(
        "index_type, params",
        [
            (IndexType.FLAT, None),
            (IndexType.SQ8, None),
            (IndexType.IVF_FLAT, {"nlist": 8, "nprobe": 8}),
            (IndexType.IVF_PQ, {"nlist": 8, "nprobe": 8, "m": 8}),
        ],
    )
    def test_interleaved_update_replace_delete(self, clustered_data, index_type, params):
        data = clustered_data[:40]
        # Later rows are midpoints of first-batch rows: distinct, and inside
        # the per-dimension range SQ8 fixes when its first batch trains it.
        fresh = (data + np.roll(data, 1, axis=0)) / 2
        index = create_index(index_type, 16, Metric.L2, params)
        truth: dict[int, np.ndarray] = {}

        def put(ids, rows):
            index.update_items(ids, rows)
            truth.update(zip(ids, rows))

        def drop(ids):
            index.delete_items(ids)
            for i in ids:
                truth.pop(i, None)

        put(list(range(40)), data)  # crosses the 16-row initial table
        drop([0, 7, 39, 1000])  # swap-remove head/middle/tail, unknown id
        put([7, 12, 40], fresh[:3])  # re-insert, replace, fresh id
        put([12], fresh[3:4])  # replace again, one row
        drop([12, 40])
        put(list(range(200, 230)), fresh[4:34])
        put([200, 200], fresh[34:36])  # duplicate id inside one batch

        assert len(index) == len(truth) == index.stats.num_vectors
        assert all(i in index for i in truth)
        assert not any(i in index for i in (0, 12, 39, 40, 1000))
        span = data.max(axis=0) - data.min(axis=0)
        for ext_id, row in truth.items():
            # Every live id still resolves to its own latest vector (up to
            # SQ8's quantization step) and is its own nearest neighbour.
            assert np.all(np.abs(index.get_embedding(ext_id) - row) <= span / 255.0 + 1e-5)
            assert index.topk_search(row, 1).ids[0] == ext_id
        found = index.topk_search(data[0], len(truth) + 10).ids.tolist()
        assert sorted(found) == sorted(truth)  # no stale or duplicate rows
        if index_type is IndexType.SQ8:
            assert index.memory_bytes == len(truth) * 16  # live rows, not capacity


class TestEmbeddingAttributeWithIVF:
    def test_ivf_index_in_schema(self, rng):
        """A vertex embedding attribute can declare INDEX = IVF_FLAT."""
        from tests.conftest import make_post_db

        db = make_post_db()
        db.schema.add_embedding_attribute(
            "Person", "pemb", dimension=8, index=IndexType.IVF_FLAT,
            metric=Metric.L2, index_params={"nlist": 4, "nprobe": 4},
        )
        with db.begin() as txn:
            for i in range(50):
                txn.upsert_vertex("Person", i, {})
                txn.set_embedding("Person", i, "pemb", rng.standard_normal(8))
        db.vacuum()
        q = db.service.store("Person", "pemb").get_embedding(db.vid_for("Person", 5))
        result = db.vector_search(["Person.pemb"], q, k=1)
        assert next(iter(result)) == ("Person", db.vid_for("Person", 5))
        db.close()

    def test_gsql_ddl_ivf(self):
        from repro import TigerVectorDB

        db = TigerVectorDB()
        db.run_gsql(
            "CREATE VERTEX P (id INT PRIMARY KEY);"
            "ALTER VERTEX P ADD EMBEDDING ATTRIBUTE e "
            "(DIMENSION = 8, INDEX = IVF_FLAT, METRIC = L2);"
        )
        emb = db.schema.vertex_type("P").embedding("e")
        assert emb.index is IndexType.IVF_FLAT
        db.close()
