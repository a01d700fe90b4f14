"""The batch build of fresh HNSW rows (``HNSWIndex._build_fresh``).

Ids an index has never seen are built in one pass from exact causal
candidates; ids it holds are rewritten in place.  These tests pin the graph
the build leaves (structure, determinism, recall against brute force) and
the way one ``update_items`` call splits between the two paths.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.index import HNSWIndex
from repro.types import Metric, batch_distances


def clustered(rng, count, dim=32, centers=16):
    middles = rng.standard_normal((centers, dim)).astype(np.float32) * 2.0
    pick = rng.integers(0, centers, size=count)
    return (middles[pick] + rng.standard_normal((count, dim))).astype(np.float32)


def build(data, metric=Metric.L2, seed=100, **params):
    index = HNSWIndex(data.shape[1], metric, seed=seed, **params)
    index.update_items(np.arange(len(data)), data)
    return index


def recall_at_10(index, data, queries, metric, ef):
    hits = 0
    for query in queries:
        truth = np.argsort(batch_distances(query, data, metric), kind="stable")[:10]
        got = index.topk_search(query, 10, ef=ef).ids
        hits += len(set(got.tolist()) & set(truth.tolist()))
    return hits / (10 * len(queries))


def exact_distances(query, rows, metric):
    q, v = query.astype(np.float64), rows.astype(np.float64)
    if metric is Metric.L2:
        return ((v - q) ** 2).sum(axis=1)
    if metric is Metric.COSINE:
        return 1.0 - (v @ q) / (np.linalg.norm(v, axis=1) * np.linalg.norm(q))
    return 1.0 - v @ q


def reachable_on_layer0(index):
    seen = np.zeros(index._count, dtype=bool)
    frontier = [index._entry_point]
    seen[index._entry_point] = True
    while frontier:
        row = frontier.pop()
        for nbr in index._links0[row, : index._links0_cnt[row]].tolist():
            if not seen[nbr]:
                seen[nbr] = True
                frontier.append(nbr)
    return seen


@pytest.fixture(scope="module")
def data():
    return clustered(np.random.default_rng(5), 1500)


@pytest.fixture(scope="module")
def queries():
    return clustered(np.random.default_rng(6), 60)


@pytest.fixture(scope="module")
def built(data):
    return build(data, M=8, ef_construction=64)


class TestStructure:
    @pytest.mark.parametrize("n", [1, 2, 9, 17, 40, 300])
    def test_invariants_at_small_sizes(self, n):
        data = clustered(np.random.default_rng(n), n, dim=8)
        self.check(build(data, M=8, ef_construction=16))

    def test_invariants_after_a_full_build(self, built):
        self.check(built)

    def test_invariants_without_the_heuristic(self, data):
        self.check(build(data[:500], M=8, ef_construction=32, prune_heuristic=False))

    @staticmethod
    def check(index):
        n = index._count
        counts = index._links0_cnt[:n]
        assert counts.min() >= min(index.M0, n - 1)
        assert counts.max() <= index._links0_width
        for row in range(n):
            links = index._links0[row, : counts[row]]
            assert (links >= 0).all() and (links < n).all()
            assert row not in links, f"self-loop at row {row}"
            assert np.unique(links).size == links.size, f"duplicate neighbour at row {row}"
            assert (index._links0[row, counts[row] :] == -1).all(), "-1 tail broken"
        for level, layer in enumerate(index._links_upper, start=1):
            for row, links in layer.items():
                assert index._levels[row] >= level
                assert len(links) <= index.M
                assert row not in links and len(set(links)) == len(links)
                assert all(index._levels[nbr] >= level for nbr in links)
        assert index._levels[index._entry_point] == index._max_level == max(index._levels)
        assert reachable_on_layer0(index).all()

    def test_same_seed_same_graph(self, data, built):
        again = build(data, M=8, ef_construction=64)
        assert again._links0.tobytes() == built._links0.tobytes()
        assert again._links_upper == built._links_upper
        assert again._levels == built._levels

    def test_levels_drawn_as_row_by_row(self, data):
        """One draw of the level generator per fresh row, in record order."""
        index = build(data[:200], M=8, ef_construction=32, seed=9)
        rng = np.random.default_rng(9)
        want = [int(-np.log(max(rng.random(), 1e-12)) * index._ml) for _ in range(200)]
        assert index._levels == want


class TestCandidates:
    @pytest.mark.parametrize("metric", [Metric.L2, Metric.COSINE, Metric.IP])
    def test_causal_candidates_are_the_exact_nearest_before_each_row(self, metric):
        """Against a float64 brute force over the live rows numbered below
        each new row, with part of the index built and tombstoned first."""
        rng = np.random.default_rng(3)
        data = clustered(rng, 260, dim=8)
        index = HNSWIndex(8, metric, M=4, ef_construction=24)
        index.update_items(np.arange(60), data[:60])
        index.delete_items(range(0, 60, 3))
        index._grow(260)
        index._vectors[60:260] = data[60:]
        index._kernel.set_rows(slice(60, 260), index._vectors[60:260])
        index._levels.extend([0] * 200)
        levels = np.asarray(index._levels)
        rows = np.arange(60, 260)
        live = ~index._deleted[:260]
        for row, found in index._causal_candidates(rows, 0, levels):
            before = np.flatnonzero(live[:row])
            want = exact_distances(data[row], data[before], metric)
            order = np.argsort(want, kind="stable")[: index.ef_construction]
            dists = np.array([d for d, _ in found])
            assert len(found) == order.size
            assert np.all(np.diff(dists) >= 0)
            np.testing.assert_allclose(dists, want[order], rtol=1e-4, atol=1e-4)
            got = {r for _, r in found}
            assert got <= set(before.tolist())
            # Ids agree up to ties at the cut.
            assert len(got & set(before[order].tolist())) >= order.size - 2


class TestRecall:
    @pytest.mark.parametrize(
        "metric, floor", [(Metric.L2, 0.95), (Metric.COSINE, 0.95), (Metric.IP, 0.85)]
    )
    def test_recall_floor(self, data, queries, metric, floor):
        index = build(data, metric, M=8, ef_construction=64)
        assert recall_at_10(index, data, queries, metric, ef=64) >= floor

    def test_recall_floor_without_the_heuristic(self, data, queries):
        index = build(data, M=8, ef_construction=64, prune_heuristic=False)
        assert recall_at_10(index, data, queries, Metric.L2, ef=64) >= 0.9

    def test_fresh_rows_into_a_non_empty_index(self, data, queries, built):
        """Half the rows built first, the other half folded in as one batch."""
        index = HNSWIndex(data.shape[1], Metric.L2, M=8, ef_construction=64)
        index.update_items(np.arange(750), data[:750])
        index.update_items(np.arange(750, 1500), data[750:])
        assert index._count == 1500
        TestStructure.check(index)
        split = recall_at_10(index, data, queries, Metric.L2, ef=32)
        whole = recall_at_10(built, data, queries, Metric.L2, ef=32)
        assert split >= whole - 0.02, (split, whole)

    def test_tombstoned_rows_are_not_candidates(self, data):
        index = HNSWIndex(data.shape[1], Metric.L2, M=8, ef_construction=64)
        index.update_items(np.arange(500), data[:500])
        index.delete_items(range(0, 500, 2))
        index.update_items(np.arange(500, 700), data[500:700])
        for row in range(500, 700):
            links = index._links0[row, : index._links0_cnt[row]]
            forward = links[links < row]
            assert not index._deleted[forward].any()


class TestOneCall:
    def test_fresh_existing_and_repeated_ids(self, data):
        index = HNSWIndex(data.shape[1], Metric.L2, M=8, ef_construction=32)
        index.update_items(np.arange(100), data[:100])
        ids = [5, 200, 7, 201, 200, 5, 202]
        vectors = data[300:307]
        index.update_items(ids, vectors)
        assert index._count == 103  # 100 + three distinct fresh ids
        assert len(index) == 103
        last = {ext_id: vectors[i] for i, ext_id in enumerate(ids)}
        for ext_id, vector in last.items():
            assert np.array_equal(index.get_embedding(ext_id), vector)
            assert index.topk_search(vector, 1, ef=64).ids.tolist() == [ext_id]
        stats = index.stats
        assert stats.num_inserts == 100 + len(ids)
        assert stats.num_updates == 4  # 5 twice, 7 once, 200 again once
        TestStructure.check(index)

    def test_only_existing_ids_build_nothing(self, built, data):
        clone = pickle.loads(pickle.dumps(built))
        clone.update_items([3, 4], data[[10, 11]])
        assert clone._count == built._count
        assert np.array_equal(clone.get_embedding(3), data[10])


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, built, data, queries):
        path = tmp_path / "built.idx"
        built.save(path)
        loaded = HNSWIndex.load(path)
        assert loaded._links0[: built._count].tobytes() == built._links0[: built._count].tobytes()
        assert loaded._entry_point == built._entry_point
        for query in queries[:10]:
            want = built.topk_search(query, 10, ef=64)
            got = loaded.topk_search(query, 10, ef=64)
            assert got.ids.tolist() == want.ids.tolist()
            np.testing.assert_allclose(got.distances, want.distances, rtol=1e-5)


class TestLockFreeReaders:
    def test_searches_racing_fresh_batches_return_true_distances(self):
        """One thread builds fresh batches while three search without a lock:
        every id returned is one the index holds, at its true distance."""
        rng = np.random.default_rng(8)
        data = clustered(rng, 1200, dim=16)
        index = HNSWIndex(16, Metric.L2, M=8, ef_construction=32)
        index.update_items(np.arange(100), data[:100])
        stop = threading.Event()
        errors: list[BaseException] = []

        def builder():
            try:
                for lo in range(100, 1200, 50):
                    index.update_items(np.arange(lo, lo + 50), data[lo : lo + 50])
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def searcher(seed):
            local = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    query = data[local.integers(0, 1200)]
                    result = index.topk_search(query, 5, ef=32)
                    assert len(result.ids) >= 1
                    for ext_id, dist in zip(result.ids.tolist(), result.distances.tolist()):
                        true = float(np.sum((data[ext_id] - query) ** 2))
                        assert abs(dist - true) <= 1e-3 * max(1.0, true), (ext_id, dist, true)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=builder)] + [
                threading.Thread(target=searcher, args=(seed,)) for seed in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]
        assert index._count == 1200
