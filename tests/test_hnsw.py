"""Tests for the HNSW index implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VectorSearchError
from repro.index import BruteForceIndex, HNSWIndex
from repro.types import Metric


def build_index(rng, n=500, dim=16, metric=Metric.L2, **kwargs):
    data = rng.standard_normal((n, dim)).astype(np.float32)
    index = HNSWIndex(dim, metric, M=8, ef_construction=64, **kwargs)
    index.update_items(np.arange(n), data)
    return index, data


class TestConstruction:
    def test_invalid_dim(self):
        with pytest.raises(VectorSearchError):
            HNSWIndex(0, Metric.L2)

    def test_invalid_m(self):
        with pytest.raises(VectorSearchError):
            HNSWIndex(4, Metric.L2, M=1)

    def test_len_and_contains(self, rng):
        index, _ = build_index(rng, n=50)
        assert len(index) == 50
        assert 7 in index
        assert 999 not in index

    def test_dimension_mismatch_on_insert(self):
        index = HNSWIndex(4, Metric.L2)
        with pytest.raises(VectorSearchError):
            index.update_items([0], np.zeros((1, 5), dtype=np.float32))

    def test_ids_vectors_length_mismatch(self):
        index = HNSWIndex(4, Metric.L2)
        with pytest.raises(VectorSearchError):
            index.update_items([0, 1], np.zeros((1, 4), dtype=np.float32))


class TestSearch:
    def test_exact_match_found_first(self, rng):
        index, data = build_index(rng)
        result = index.topk_search(data[42], 1, ef=64)
        assert result.ids[0] == 42
        assert result.distances[0] == pytest.approx(0.0, abs=1e-4)

    def test_results_sorted_by_distance(self, rng):
        index, data = build_index(rng)
        result = index.topk_search(rng.standard_normal(16).astype(np.float32), 10, ef=64)
        assert list(result.distances) == sorted(result.distances)

    def test_recall_against_bruteforce(self, rng):
        index, data = build_index(rng, n=1000)
        bf = BruteForceIndex(16, Metric.L2)
        bf.update_items(np.arange(1000), data)
        hits = 0
        for _ in range(20):
            q = rng.standard_normal(16).astype(np.float32)
            got = set(index.topk_search(q, 10, ef=128).ids.tolist())
            exact = set(bf.topk_search(q, 10).ids.tolist())
            hits += len(got & exact)
        assert hits / 200 > 0.85

    def test_higher_ef_never_worse_on_average(self, rng):
        index, data = build_index(rng, n=800)
        bf = BruteForceIndex(16, Metric.L2)
        bf.update_items(np.arange(800), data)
        queries = rng.standard_normal((20, 16)).astype(np.float32)

        def recall(ef):
            hits = 0
            for q in queries:
                got = set(index.topk_search(q, 10, ef=ef).ids.tolist())
                exact = set(bf.topk_search(q, 10).ids.tolist())
                hits += len(got & exact)
            return hits / 200

        assert recall(256) >= recall(10) - 0.02

    def test_empty_index(self):
        index = HNSWIndex(4, Metric.L2)
        result = index.topk_search(np.zeros(4, dtype=np.float32), 5)
        assert len(result) == 0

    def test_k_larger_than_index(self, rng):
        index, _ = build_index(rng, n=5)
        result = index.topk_search(np.zeros(16, dtype=np.float32), 50, ef=64)
        assert len(result) == 5

    def test_invalid_k(self, rng):
        index, _ = build_index(rng, n=10)
        with pytest.raises(VectorSearchError):
            index.topk_search(np.zeros(16, dtype=np.float32), 0)

    def test_query_dimension_check(self, rng):
        index, _ = build_index(rng, n=10)
        with pytest.raises(VectorSearchError):
            index.topk_search(np.zeros(3, dtype=np.float32), 1)

    def test_cosine_metric(self, rng):
        index, data = build_index(rng, n=300, metric=Metric.COSINE)
        bf = BruteForceIndex(16, Metric.COSINE)
        bf.update_items(np.arange(300), data)
        q = rng.standard_normal(16).astype(np.float32)
        got = set(index.topk_search(q, 5, ef=128).ids.tolist())
        exact = set(bf.topk_search(q, 5).ids.tolist())
        assert len(got & exact) >= 4

    def test_ip_metric(self, rng):
        index, data = build_index(rng, n=300, metric=Metric.IP)
        result = index.topk_search(data[3], 5, ef=128)
        assert len(result) == 5


class TestFilteredSearch:
    def test_filter_respected(self, rng):
        index, data = build_index(rng, n=400)
        allowed = set(range(0, 400, 3))
        result = index.topk_search(
            data[9], 10, ef=128, filter_fn=lambda i: i in allowed
        )
        assert len(result) == 10
        assert all(i in allowed for i in result.ids)

    def test_filter_excluding_all(self, rng):
        index, data = build_index(rng, n=50)
        result = index.topk_search(data[0], 5, ef=64, filter_fn=lambda i: False)
        assert len(result) == 0

    def test_filtered_matches_bruteforce_on_allowed(self, rng):
        index, data = build_index(rng, n=400)
        allowed = np.zeros(400, dtype=bool)
        allowed[::5] = True
        bf = BruteForceIndex(16, Metric.L2)
        rows = np.flatnonzero(allowed)
        bf.update_items(rows, data[rows])
        q = data[10]
        got = set(index.topk_search(q, 5, ef=256, filter_fn=lambda i: bool(allowed[i])).ids.tolist())
        exact = set(bf.topk_search(q, 5).ids.tolist())
        assert len(got & exact) >= 4


class TestUpdatesAndDeletes:
    def test_delete_hides_from_results(self, rng):
        index, data = build_index(rng, n=100)
        target = int(index.topk_search(data[7], 1, ef=64).ids[0])
        index.delete_items([target])
        result = index.topk_search(data[7], 5, ef=64)
        assert target not in result.ids
        assert len(index) == 99

    def test_get_embedding_roundtrip(self, rng):
        index, data = build_index(rng, n=30)
        assert np.allclose(index.get_embedding(12), data[12])

    def test_get_embedding_missing(self, rng):
        index, _ = build_index(rng, n=5)
        with pytest.raises(VectorSearchError):
            index.get_embedding(100)

    def test_update_replaces_vector(self, rng):
        index, data = build_index(rng, n=100)
        new_vec = np.full(16, 50.0, dtype=np.float32)
        index.update_items([3], new_vec.reshape(1, -1))
        assert np.allclose(index.get_embedding(3), new_vec)
        # the updated vector is findable at its new location
        result = index.topk_search(new_vec, 1, ef=128)
        assert result.ids[0] == 3

    def test_update_does_not_duplicate(self, rng):
        index, data = build_index(rng, n=50)
        index.update_items([5], data[5].reshape(1, -1) + 0.01)
        result = index.topk_search(data[5], 20, ef=128)
        assert list(result.ids).count(5) == 1
        assert len(index) == 50

    def test_delete_then_reinsert(self, rng):
        index, data = build_index(rng, n=50)
        index.delete_items([7])
        assert 7 not in index
        index.update_items([7], data[7].reshape(1, -1))
        assert 7 in index
        assert len(index) == 50


class TestPersistence:
    def test_pickle_roundtrip(self, rng):
        import pickle

        index, data = build_index(rng, n=100)
        clone = pickle.loads(pickle.dumps(index))
        q = data[4]
        assert (
            clone.topk_search(q, 5, ef=64).ids.tolist()
            == index.topk_search(q, 5, ef=64).ids.tolist()
        )
        # the clone is independent
        clone.delete_items([4])
        assert 4 in index
        assert 4 not in clone


class TestStats:
    def test_stats_reported(self, rng):
        index, data = build_index(rng, n=100)
        before = index.stats.num_distance_computations
        index.topk_search(data[0], 5, ef=64)
        stats = index.stats
        assert stats.num_searches >= 1
        assert stats.num_distance_computations > before
        assert stats.num_vectors == 100
        assert stats.build_seconds > 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 10))
def test_topk_distances_sorted_property(seed, k):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((100, 8)).astype(np.float32)
    index = HNSWIndex(8, Metric.L2, M=8, ef_construction=32)
    index.update_items(np.arange(100), data)
    result = index.topk_search(rng.standard_normal(8).astype(np.float32), k, ef=32)
    dists = list(result.distances)
    assert dists == sorted(dists)
    assert len(set(result.ids.tolist())) == len(result.ids)
