"""Tests for product quantization: codebooks, the ADC kernel, and IVF_PQ.

The load-bearing properties (ISSUE 8 acceptance):

- ADC distances match the exact distance *to the reconstruction* within
  float tolerance on every metric, including zero vectors and rows that
  were replaced after encoding.
- The fused multi-query path is bit-identical to per-query evaluation
  (same gather + sum, so equality is exact, not approximate).
- When every row is distinct and fits the codebook (n <= 256 per
  subspace), reconstruction is exact and ADC equals the true distance.
"""

import numpy as np
import pytest

from repro.errors import VectorSearchError
from repro.index import (
    BruteForceIndex,
    IVFPQIndex,
    PQCodebook,
    PQCodes,
    PQKernel,
    PQSearchConfig,
    create_index,
)
from repro.index.pq import CODEBOOK_SIZE, _pad_table
from repro.types import IndexType, Metric, normalize

METRICS = [Metric.L2, Metric.IP, Metric.COSINE]


def reference_distances(decoded: np.ndarray, query: np.ndarray, metric: Metric):
    """Exact distance from ``query`` to each reconstructed row.

    COSINE follows the kernel contract: rows were L2-normalized *before*
    encoding, so the reconstruction is used as-is (no re-normalization)
    against the unit query.
    """
    decoded = np.asarray(decoded, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if metric is Metric.L2:
        return np.maximum(((decoded - query) ** 2).sum(axis=1), 0.0)
    if metric is Metric.COSINE:
        norm = np.linalg.norm(query)
        unit = query if norm == 0.0 else query / norm
        return 1.0 - decoded @ unit
    return 1.0 - decoded @ query


@pytest.fixture
def rows(rng):
    return rng.standard_normal((300, 16)).astype(np.float32)


# ---------------------------------------------------------------------------
# codebook
# ---------------------------------------------------------------------------


class TestPQCodebook:
    def test_train_shapes(self, rows):
        book = PQCodebook.train(rows, 4)
        assert book.m == 4
        assert book.splits == [(0, 4), (4, 8), (8, 12), (12, 16)]
        for table in book.centroids:
            assert table.shape == (CODEBOOK_SIZE, 4)
            assert table.dtype == np.float32

    def test_uneven_split_allowed(self, rng):
        rows = rng.standard_normal((50, 10)).astype(np.float32)
        book = PQCodebook.train(rows, 3)
        widths = [stop - start for start, stop in book.splits]
        assert sorted(widths) == [3, 3, 4]
        assert book.splits[0][0] == 0 and book.splits[-1][1] == 10

    def test_encode_decode_roundtrip_small_n(self, rng):
        # 40 distinct rows, 40 < 256 per-subspace points: k-means places a
        # centroid on every point, so reconstruction is exact.
        rows = rng.standard_normal((40, 8)).astype(np.float32)
        book = PQCodebook.train(rows, 2, iterations=12)
        decoded = book.decode(book.encode(rows))
        np.testing.assert_allclose(decoded, rows, atol=1e-5)

    def test_train_validation(self, rows):
        with pytest.raises(VectorSearchError):
            PQCodebook.train(np.zeros((0, 8), dtype=np.float32), 2)
        with pytest.raises(VectorSearchError):
            PQCodebook.train(rows, 0)
        with pytest.raises(VectorSearchError):
            PQCodebook.train(rows, 17)  # m > dim

    def test_encode_dimension_check(self, rows):
        book = PQCodebook.train(rows, 4)
        with pytest.raises(VectorSearchError):
            book.encode(np.zeros((2, 5), dtype=np.float32))
        with pytest.raises(VectorSearchError):
            book.lut(np.zeros(5, dtype=np.float32), Metric.L2)

    def test_affine_matches_sq8_arithmetic(self):
        lo = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        scale = np.array([0.5, 0.25, 1.0], dtype=np.float32)
        book = PQCodebook.affine(lo, scale)
        assert book.m == 3 and book.dim == 3
        codes = np.array([[0, 4, 255], [255, 0, 1]], dtype=np.uint8)
        expected = codes.astype(np.float32) * scale + lo
        np.testing.assert_allclose(book.decode(codes), expected)
        # Encoding a decoded point returns the same codes (grid points).
        np.testing.assert_array_equal(book.encode(expected), codes)

    def test_affine_shape_mismatch(self):
        with pytest.raises(VectorSearchError):
            PQCodebook.affine(np.zeros(3), np.zeros(4))

    def test_pad_table_tiles(self):
        trained = np.arange(6, dtype=np.float32).reshape(3, 2)
        padded = _pad_table(trained)
        assert padded.shape == (CODEBOOK_SIZE, 2)
        np.testing.assert_array_equal(padded[:3], trained)
        np.testing.assert_array_equal(padded[3:6], trained)

    def test_memory_bytes(self, rows):
        book = PQCodebook.train(rows, 4)
        assert book.memory_bytes == 4 * CODEBOOK_SIZE * 4 * 4


# ---------------------------------------------------------------------------
# ADC correctness
# ---------------------------------------------------------------------------


class TestADC:
    @pytest.mark.parametrize("metric", METRICS)
    def test_adc_matches_reference_on_reconstruction(self, rows, rng, metric):
        pq = PQCodes.from_vectors(PQCodebook.train(rows, 4, metric=metric), rows, metric)
        kernel = pq.kernel(metric)
        decoded = pq.decode()
        for query in rng.standard_normal((5, 16)).astype(np.float32):
            ctx = kernel.query(query)
            got = kernel.distances_prefix(ctx, len(pq))
            want = reference_distances(decoded, query, metric)
            np.testing.assert_allclose(got, want, atol=1e-3, rtol=1e-4)

    @pytest.mark.parametrize("metric", METRICS)
    def test_adc_exact_when_reconstruction_exact(self, rng, metric):
        # n=40 distinct rows -> exact codebook -> ADC equals the true
        # distance to the *original* rows, not just the reconstruction.
        rows = rng.standard_normal((40, 8)).astype(np.float32)
        book = PQCodebook.train(rows, 2, metric=metric, iterations=12)
        pq = PQCodes.from_vectors(book, rows, metric)
        kernel = pq.kernel(metric)
        stored = normalize(rows) if metric is Metric.COSINE else rows
        query = rng.standard_normal(8).astype(np.float32)
        got = kernel.distances_prefix(kernel.query(query), 40)
        want = reference_distances(stored, query, metric)
        np.testing.assert_allclose(got, want, atol=1e-4)

    @pytest.mark.parametrize("metric", METRICS)
    def test_zero_query_and_zero_rows(self, rng, metric):
        rows = rng.standard_normal((30, 8)).astype(np.float32)
        rows[3] = 0.0
        rows[17] = 0.0
        book = PQCodebook.train(rows, 2, metric=metric, iterations=10)
        pq = PQCodes.from_vectors(book, rows, metric)
        kernel = pq.kernel(metric)
        decoded = pq.decode()
        for query in (np.zeros(8, dtype=np.float32), rows[3]):
            got = kernel.distances_prefix(kernel.query(query), 30)
            want = reference_distances(decoded, query, metric)
            np.testing.assert_allclose(got, want, atol=1e-3)
            assert np.all(np.isfinite(got))

    @pytest.mark.parametrize("metric", METRICS)
    def test_adc_after_row_replacement(self, rng, metric):
        # Re-encode a replaced row against the original codebook — the
        # tiered store's "cold snapshot built after updates" case.
        rows = rng.standard_normal((100, 8)).astype(np.float32)
        book = PQCodebook.train(rows, 2, metric=metric)
        replaced = rows.copy()
        replaced[7] = rng.standard_normal(8).astype(np.float32) * 2.0
        pq = PQCodes.from_vectors(book, replaced, metric)
        kernel = pq.kernel(metric)
        decoded = pq.decode()
        query = rng.standard_normal(8).astype(np.float32)
        got = kernel.distances_prefix(kernel.query(query), 100)
        want = reference_distances(decoded, query, metric)
        np.testing.assert_allclose(got, want, atol=1e-3, rtol=1e-4)

    def test_l2_rank_is_true_distance(self, rows):
        # q_sq is folded into the L2 LUT, so rank == true (module doc).
        pq = PQCodes.from_vectors(PQCodebook.train(rows, 4), rows, Metric.L2)
        kernel = pq.kernel(Metric.L2)
        ctx = kernel.query(rows[0])
        assert ctx.q_sq == 0.0
        rank = kernel.rank(ctx, np.arange(20))
        np.testing.assert_array_equal(kernel.to_true(ctx, rank.copy()), rank)


# ---------------------------------------------------------------------------
# kernel contract
# ---------------------------------------------------------------------------


class TestPQKernelContract:
    @pytest.fixture
    def kernel(self, rows):
        pq = PQCodes.from_vectors(PQCodebook.train(rows, 4), rows, Metric.L2)
        return pq.kernel(Metric.L2)

    @pytest.mark.parametrize("metric", METRICS)
    def test_fused_multi_bit_identical_to_solo(self, rows, rng, metric):
        pq = PQCodes.from_vectors(PQCodebook.train(rows, 4, metric=metric), rows, metric)
        kernel = pq.kernel(metric)
        queries = rng.standard_normal((6, 16)).astype(np.float32)
        picked = np.arange(0, 300, 7)
        mctx = kernel.queries(queries)
        fused = kernel.distances_multi(mctx, picked)
        solo = np.stack(
            [kernel.distances(kernel.query(q), picked) for q in queries]
        )
        np.testing.assert_array_equal(fused, solo)  # exact, not approx
        fused_prefix = kernel.distances_multi_prefix(kernel.queries(queries), 50)
        solo_prefix = np.stack(
            [kernel.distances_prefix(kernel.query(q), 50) for q in queries]
        )
        np.testing.assert_array_equal(fused_prefix, solo_prefix)

    def test_fused_counts_distances(self, kernel, rows):
        mctx = kernel.queries(rows[:3])
        kernel.distances_multi(mctx, np.arange(10))
        assert [ctx.num_distances for ctx in mctx.contexts] == [10, 10, 10]

    @pytest.mark.parametrize("metric", METRICS)
    def test_pairwise_matches_decoded_reference(self, rows, metric):
        pq = PQCodes.from_vectors(PQCodebook.train(rows, 4, metric=metric), rows, metric)
        kernel = pq.kernel(metric)
        picked = np.array([0, 3, 9, 41])
        got = kernel.pairwise(picked)
        decoded = pq.decode()[picked]
        if metric is Metric.L2:
            want = np.maximum(
                ((decoded[:, None, :] - decoded[None, :, :]) ** 2).sum(axis=2), 0.0
            )
        else:
            want = 1.0 - decoded @ decoded.T
        np.testing.assert_allclose(got, want, atol=1e-3)

    def test_cross_matches_per_query(self, kernel, rows, rng):
        queries = rng.standard_normal((3, 16)).astype(np.float32)
        got = kernel.cross(queries, n=40)
        want = np.stack(
            [kernel.distances_prefix(kernel.query(q), 40) for q in queries]
        )
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_immutable_binding(self, kernel, rows):
        with pytest.raises(VectorSearchError):
            kernel.attach(rows, 10)
        with pytest.raises(VectorSearchError):
            kernel.set_row(0, rows[0])
        with pytest.raises(VectorSearchError):
            kernel.set_rows([0, 1], rows[:2])

    def test_code_shape_validation(self, rows):
        book = PQCodebook.train(rows, 4)
        with pytest.raises(VectorSearchError):
            PQKernel(book, np.zeros((10, 3), dtype=np.uint8), Metric.L2)
        with pytest.raises(VectorSearchError):
            PQCodes(book, np.zeros(10, dtype=np.uint8))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


class TestPQSearchConfig:
    def test_candidates_inflation(self):
        cfg = PQSearchConfig(rerank=True, rerank_factor=4)
        assert cfg.candidates(10) == 40
        assert PQSearchConfig(rerank=False).candidates(10) == 10

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PQSearchConfig().m = 3


# ---------------------------------------------------------------------------
# IVF_PQ index
# ---------------------------------------------------------------------------


class TestIVFPQIndex:
    @pytest.fixture
    def data(self, rng):
        return rng.standard_normal((400, 16)).astype(np.float32)

    def test_refined_recall_vs_bruteforce(self, data, rng):
        index = IVFPQIndex(dim=16, nlist=8, nprobe=8, m=8)
        index.update_items(list(range(400)), data)
        truth = BruteForceIndex(dim=16)
        truth.update_items(list(range(400)), data)
        hits = total = 0
        for query in rng.standard_normal((20, 16)).astype(np.float32):
            got = set(index.topk_search(query, 10).ids.tolist())
            want = set(truth.topk_search(query, 10).ids.tolist())
            hits += len(got & want)
            total += len(want)
        assert hits / total >= 0.9
        # Full-probe rerank recovers the exact nearest neighbour.
        for query in data[:10]:
            assert index.topk_search(query, 1).ids[0] == truth.topk_search(query, 1).ids[0]

    def test_update_replaces_without_duplicates(self, data, rng):
        index = IVFPQIndex(dim=16, nlist=4, nprobe=4)
        index.update_items(list(range(50)), data[:50])
        moved = rng.standard_normal(16).astype(np.float32) * 10
        index.update_items([7], moved.reshape(1, -1))
        assert len(index) == 50
        result = index.topk_search(moved, 5)
        assert result.ids[0] == 7
        assert len(set(result.ids.tolist())) == len(result.ids)
        np.testing.assert_allclose(index.get_embedding(7), moved)

    def test_delete_items(self, data):
        index = IVFPQIndex(dim=16, nlist=4, nprobe=4)
        index.update_items(list(range(50)), data[:50])
        index.delete_items([0, 1, 2])
        assert len(index) == 47
        assert 0 not in index
        ids = index.topk_search(data[0], 10).ids.tolist()
        assert not {0, 1, 2} & set(ids)

    def test_memory_excludes_raw_rows(self, data):
        index = IVFPQIndex(dim=16, nlist=4, m=8)
        index.update_items(list(range(400)), data)
        raw_bytes = data.nbytes
        assert index.memory_bytes < raw_bytes  # 8 B codes vs 64 B rows + tables

    def test_no_refine_drops_raw(self, data):
        index = IVFPQIndex(dim=16, nlist=4, nprobe=4, m=8, refine=False)
        index.update_items(list(range(100)), data[:100])
        assert index._vectors.shape[0] == 0
        recon = index.get_embedding(3)
        assert recon.shape == (16,)
        # Quantized-only search still lands in the neighbourhood.
        ids = index.topk_search(data[3], 5).ids.tolist()
        assert 3 in ids

    def test_filter_and_empty(self, data):
        index = IVFPQIndex(dim=16, nlist=4, nprobe=4)
        assert len(index.topk_search(data[0], 3).ids) == 0
        index.update_items(list(range(20)), data[:20])
        result = index.topk_search(data[0], 5, filter_fn=lambda i: i % 2 == 0)
        assert all(i % 2 == 0 for i in result.ids.tolist())
        with pytest.raises(VectorSearchError):
            index.topk_search(data[0], 0)

    def test_range_search(self, data):
        index = IVFPQIndex(dim=16, nlist=4, nprobe=4)
        index.update_items(list(range(50)), data[:50])
        result = index.range_search(data[0], 1.0)
        assert 0 in result.ids.tolist()

    def test_constructor_validation(self):
        with pytest.raises(VectorSearchError):
            IVFPQIndex(dim=0)
        with pytest.raises(VectorSearchError):
            IVFPQIndex(dim=8, nlist=0)
        with pytest.raises(VectorSearchError):
            IVFPQIndex(dim=8, m=9)
        with pytest.raises(VectorSearchError):
            IVFPQIndex(dim=8, rerank_factor=0)

    def test_factory(self):
        index = create_index(
            IndexType.IVF_PQ, dim=12, metric=Metric.COSINE,
            index_params={"m": 4, "nlist": 8, "nprobe": 2, "refine": False},
        )
        assert isinstance(index, IVFPQIndex)
        assert index.m == 4 and index.nlist == 8 and not index.refine
        default = create_index(IndexType.IVF_PQ, dim=4, metric=Metric.L2)
        assert default.m == 4  # min(8, dim)

    def test_stats_tracked(self, data):
        index = IVFPQIndex(dim=16, nlist=4, nprobe=4)
        index.update_items(list(range(30)), data[:30])
        index.topk_search(data[0], 3)
        snap = index.stats.snapshot()
        assert snap["num_vectors"] == 30
        assert snap["num_searches"] == 1
        assert snap["num_distance_computations"] > 0
