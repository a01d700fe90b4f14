"""Tests for the brute-force index, bitmaps, and DiskANN-style range search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VectorSearchError
from repro.index import Bitmap, BruteForceIndex, HNSWIndex, range_search_via_topk
from repro.types import Metric


class TestBruteForce:
    def test_exact_topk(self, rng):
        data = rng.standard_normal((100, 8)).astype(np.float32)
        index = BruteForceIndex(8, Metric.L2)
        index.update_items(np.arange(100), data)
        q = data[17]
        result = index.topk_search(q, 1)
        assert result.ids[0] == 17

    def test_update_overwrites(self, rng):
        index = BruteForceIndex(4, Metric.L2)
        index.update_items([1], np.ones((1, 4), dtype=np.float32))
        index.update_items([1], np.full((1, 4), 2.0, dtype=np.float32))
        assert len(index) == 1
        assert np.allclose(index.get_embedding(1), 2.0)

    def test_delete_swap_remove(self, rng):
        data = rng.standard_normal((10, 4)).astype(np.float32)
        index = BruteForceIndex(4, Metric.L2)
        index.update_items(np.arange(10), data)
        index.delete_items([3, 7])
        assert len(index) == 8
        assert 3 not in index
        # survivors still retrievable at correct values
        for i in (0, 9, 5):
            assert np.allclose(index.get_embedding(i), data[i])

    def test_delete_missing_is_noop(self):
        index = BruteForceIndex(4, Metric.L2)
        index.delete_items([42])
        assert len(index) == 0

    def test_filter_fn(self, rng):
        data = rng.standard_normal((50, 4)).astype(np.float32)
        index = BruteForceIndex(4, Metric.L2)
        index.update_items(np.arange(50), data)
        result = index.topk_search(data[0], 10, filter_fn=lambda i: i % 2 == 0)
        assert all(i % 2 == 0 for i in result.ids)

    def test_range_search_exact(self, rng):
        data = rng.standard_normal((200, 8)).astype(np.float32)
        index = BruteForceIndex(8, Metric.L2)
        index.update_items(np.arange(200), data)
        q = data[0]
        result = index.range_search(q, threshold=4.0)
        dists = np.einsum("ij,ij->i", data - q, data - q)
        expected = set(np.flatnonzero(dists < 4.0).tolist())
        assert set(result.ids.tolist()) == expected

    def test_invalid_k(self):
        index = BruteForceIndex(4, Metric.L2)
        index.update_items([0], np.zeros((1, 4), dtype=np.float32))
        with pytest.raises(VectorSearchError):
            index.topk_search(np.zeros(4), 0)

    def test_empty_search(self):
        index = BruteForceIndex(4, Metric.L2)
        assert len(index.topk_search(np.zeros(4), 3)) == 0


class TestBitmap:
    def test_wrap_shares_memory(self):
        mask = np.array([True, False, True])
        bitmap = Bitmap.wrap(mask)
        mask[1] = True
        assert bitmap.is_valid(1)  # wrap = no copy (status-structure reuse)

    def test_copy_by_default(self):
        mask = np.array([True, False])
        bitmap = Bitmap(mask)
        mask[1] = True
        assert not bitmap.is_valid(1)

    def test_from_offsets(self):
        bitmap = Bitmap.from_offsets(10, [2, 5])
        assert bitmap.count() == 2
        assert bitmap.is_valid(2) and bitmap.is_valid(5)
        assert not bitmap.is_valid(3)

    def test_intersect_union(self):
        a = Bitmap.from_offsets(6, [0, 1, 2])
        b = Bitmap.from_offsets(6, [2, 3])
        assert np.flatnonzero(a.intersect(b).mask).tolist() == [2]
        assert np.flatnonzero(a.union(b).mask).tolist() == [0, 1, 2, 3]

    def test_out_of_range_invalid(self):
        bitmap = Bitmap.full(4)
        assert not bitmap.is_valid(10)

    def test_count_cached_and_correct(self):
        bitmap = Bitmap.from_offsets(100, range(0, 100, 7))
        assert bitmap.count() == len(range(0, 100, 7))
        assert bitmap.count() == bitmap.count()

    def test_full_empty(self):
        assert Bitmap.full(5).count() == 5
        assert Bitmap.empty(5).count() == 0


class TestRangeSearch:
    def _indexes(self, rng, n=600):
        data = rng.standard_normal((n, 8)).astype(np.float32)
        hnsw = HNSWIndex(8, Metric.L2, M=8, ef_construction=64)
        hnsw.update_items(np.arange(n), data)
        bf = BruteForceIndex(8, Metric.L2)
        bf.update_items(np.arange(n), data)
        return hnsw, bf, data

    def test_matches_bruteforce(self, rng):
        hnsw, bf, data = self._indexes(rng)
        q = data[5]
        approx = set(hnsw.range_search(q, threshold=3.0, ef=256).ids.tolist())
        exact = set(bf.range_search(q, threshold=3.0).ids.tolist())
        # approximate: allow small misses but no false positives beyond radius
        assert approx.issubset(set(bf.range_search(q, threshold=3.0).ids.tolist()))
        if exact:
            assert len(approx & exact) / len(exact) > 0.8

    def test_all_within_threshold(self, rng):
        hnsw, _, data = self._indexes(rng)
        result = hnsw.range_search(data[0], threshold=5.0, ef=128)
        assert np.all(result.distances < 5.0)

    def test_empty_result(self, rng):
        hnsw, _, data = self._indexes(rng, n=50)
        result = hnsw.range_search(data[0] + 1000.0, threshold=0.001)
        assert len(result) == 0

    def test_grows_k_until_median(self, rng):
        hnsw, bf, data = self._indexes(rng, n=300)
        # A generous radius forces multiple doubling rounds.
        exact = bf.range_search(data[0], threshold=10.0)
        approx = range_search_via_topk(hnsw, data[0], 10.0, initial_k=4, ef=256)
        assert len(approx) >= 0.8 * len(exact)

    def test_invalid_params(self, rng):
        hnsw, _, _ = self._indexes(rng, n=20)
        with pytest.raises(VectorSearchError):
            range_search_via_topk(hnsw, np.zeros(8, dtype=np.float32), 1.0, initial_k=0)

    def test_empty_index(self):
        hnsw = HNSWIndex(8, Metric.L2)
        assert len(range_search_via_topk(hnsw, np.zeros(8, dtype=np.float32), 1.0)) == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), threshold=st.floats(0.5, 20.0))
def test_range_never_exceeds_threshold_property(seed, threshold):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((80, 6)).astype(np.float32)
    index = BruteForceIndex(6, Metric.L2)
    index.update_items(np.arange(80), data)
    result = index.range_search(data[0], threshold)
    assert np.all(result.distances < threshold)
