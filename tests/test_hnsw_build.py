"""The batch build of fresh HNSW rows (``HNSWIndex._build_fresh``) and the
batch rewrite of held ones (``HNSWIndex._rewrite_held``).

Ids an index has never seen are built in one pass from exact causal
candidates; ids it holds are unlinked and wired again in place, as one
batch, by the same candidate scan and ``_link_layer``.  These tests pin the
graph both leave (structure, determinism, recall against brute force), the
way one ``update_items`` call splits between the two paths, and ``clone``.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.index import HNSWIndex
from repro.index.interface import create_index
from repro.types import IndexType, Metric, batch_distances


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


class TestRewriteBatch:
    """Held ids rewritten as one batch: unlinked, then wired like a build."""

    def test_rewriting_every_row(self, data, queries):
        """The entry point and every upper-layer node included: the top is
        restored, the entry point sits on it, and layer 0 stays connected."""
        index = build(data[:400], M=8, ef_construction=32)
        assert max(index._levels) >= 2
        moved = clustered(np.random.default_rng(11), 400)
        order = np.random.default_rng(12).permutation(400)
        index.update_items(order.tolist(), moved[order])
        assert index._count == 400 and len(index) == 400
        assert index._max_level == max(index._levels)
        assert index._levels[index._entry_point] == index._max_level
        TestStructure.check(index)
        assert recall_at_10(index, moved, queries, Metric.L2, ef=64) >= 0.95
        for ext_id in range(0, 400, 25):
            assert index.topk_search(moved[ext_id], 1, ef=64).ids.tolist() == [ext_id]

    def test_every_hand_over_lands_on_a_linked_row(self, data):
        """The batch unlinks all its rows before wiring any: an entry point
        handed over mid-batch must not be a row unlinked earlier, or a
        lock-free search starting there finds nothing else."""
        index = build(data[:400], M=8, ef_construction=32)
        upper = [row for row, level in enumerate(index._levels) if level >= 1]
        unlink, entries = index._unlink, []

        def watched(row):
            unlink(row)
            entries.append((index._entry_point, int(index._links0_cnt[index._entry_point])))

        index._unlink = watched
        index.update_items(index._ids[upper].tolist(), data[1000 : 1000 + len(upper)])
        assert len(entries) == len(upper) and len({entry for entry, _ in entries}) > 1
        assert all(degree > 0 for _, degree in entries), entries
        assert index._levels[index._entry_point] == index._max_level == max(index._levels)
        TestStructure.check(index)

    def test_an_id_listed_twice_keeps_its_last_vector(self, data):
        index = build(data[:200], M=8, ef_construction=32)
        updates = index.stats.num_updates
        index.update_items([3, 3], data[[500, 501]])
        assert index._count == 200
        assert np.array_equal(index.get_embedding(3), data[501])
        assert index.stats.num_updates == updates + 2
        result = index.topk_search(data[501], 1, ef=64)
        assert result.ids.tolist() == [3]
        assert abs(result.distances[0]) <= 1e-3
        assert 3 not in index.topk_search(data[500], 5, ef=64).ids.tolist()
        TestStructure.check(index)

    def test_a_tombstoned_held_id_is_live_again(self, data):
        index = build(data[:200], M=8, ef_construction=32)
        index.delete_items([7, 8])
        index.update_items([7], data[600:601])
        assert 7 in index and 8 not in index and len(index) == 199
        result = index.topk_search(data[600], 1, ef=64)
        assert result.ids.tolist() == [7]
        assert abs(result.distances[0]) <= 1e-3

    @pytest.mark.parametrize("metric", [Metric.L2, Metric.COSINE])
    def test_rewritten_rows_link_their_exact_nearest(self, metric):
        """Against a float64 brute force over the live rows other than the
        row itself, the batch's other rows at their new vectors included.

        With ``M`` 8 a batch of eight never overflows a rewritten row's list
        (16 own links plus at most 7 back-edges fit the width of 24), so the
        first ``M0`` links are the row's own choice and the rest are the
        batch rows that chose it.
        """
        rng = np.random.default_rng(21)
        data = clustered(rng, 600, dim=16)
        index = HNSWIndex(16, metric, M=8, ef_construction=32)
        index.update_items(np.arange(600), data)
        index.delete_items(range(1, 600, 5))
        batch = rng.choice(np.arange(0, 600, 5), size=8, replace=False)
        data[batch] = clustered(rng, 8, dim=16)
        index.update_items(batch.tolist(), data[batch])
        live = np.flatnonzero(~index._deleted[:600])
        own = {}
        for ext_id in batch.tolist():
            row = index._id_to_row[ext_id]
            links = index._links0[row, : index._links0_cnt[row]].tolist()
            own[row] = links[: index.M0]
            others = live[live != row]
            dists = exact_distances(data[ext_id], data[index._ids[others]], metric)
            cut = np.sort(dists)[index.ef_construction - 1]
            near = set(others[dists <= cut + 1e-4 * max(1.0, abs(cut))].tolist())
            assert len(own[row]) == index.M0
            assert set(own[row]) <= near, (ext_id, set(own[row]) - near)
        for row in own:
            links = index._links0[row, : index._links0_cnt[row]].tolist()
            assert set(links[index.M0 :]) <= {other for other in own if row in own[other]}

    def test_fresh_held_and_repeated_ids_in_one_batch(self, data):
        index = build(data[:100], M=8, ef_construction=32)
        ids = [5, 200, 7, 200, 5, 201, 3, 7]
        vectors = data[700:708]
        index.update_items(ids, vectors)
        assert index._count == len(set(range(100)) | set(ids)) == 102
        last = {ext_id: vectors[i] for i, ext_id in enumerate(ids)}
        for ext_id, vector in last.items():
            assert np.array_equal(index.get_embedding(ext_id), vector)
            assert index.topk_search(vector, 1, ef=64).ids.tolist() == [ext_id]
        TestStructure.check(index)

    def test_same_batch_same_graph(self, data):
        def rewritten():
            index = build(data[:300], M=8, ef_construction=32)
            index.update_items([9, 40, 41, 250], data[[900, 901, 902, 903]])
            return index

        one, two = rewritten(), rewritten()
        assert one._links0.tobytes() == two._links0.tobytes()
        assert one._links_upper == two._links_upper
        assert one._entry_point == two._entry_point


class TestClone:
    def test_writing_the_clone_leaves_the_original(self, data, queries):
        index = build(data[:400], M=8, ef_construction=32)
        links = index._links0.tobytes()
        want = [index.topk_search(query, 10, ef=64) for query in queries[:20]]
        twin = index.clone()
        twin.update_items([0, 1, 2, index._ids[index._entry_point]], data[[800, 801, 802, 803]])
        twin.update_items(np.arange(400, 450), data[400:450])
        assert twin._links0.tobytes() != index._links0[: twin._capacity].tobytes()
        assert index._links0.tobytes() == links and index._count == 400
        for query, before in zip(queries[:20], want):
            after = index.topk_search(query, 10, ef=64)
            assert after.ids.tolist() == before.ids.tolist()
            assert after.distances.tolist() == before.distances.tolist()

    def test_clone_equals_a_pickle_round_trip(self, data):
        index = build(data[:300], M=8, ef_construction=32)
        index.delete_items([4, 5])
        index.update_items([6], data[900:901])
        twin, round_trip = index.clone(), pickle.loads(pickle.dumps(index))
        assert twin is not index and twin._vectors is not index._vectors
        skip = {"_write_lock", "_scratch_lock", "_kernel", "_rng", "_stats"}
        assert set(vars(twin)) == set(vars(round_trip))
        for name in set(vars(twin)) - skip:
            mine, theirs = getattr(twin, name), getattr(round_trip, name)
            if isinstance(mine, np.ndarray):
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), name
            else:
                assert mine == theirs, name
        assert np.array_equal(twin._kernel._aug, round_trip._kernel._aug)
        assert twin._stats.snapshot() == round_trip._stats.snapshot()
        assert twin._rng.random() == round_trip._rng.random()

    def test_an_index_without_its_own_clone_round_trips_through_pickle(self, data):
        index = create_index(IndexType.FLAT, data.shape[1], Metric.L2)
        index.update_items(np.arange(50), data[:50])
        twin = index.clone()
        assert type(twin) is type(index) and twin is not index
        twin.update_items([0], data[60:61])
        twin.delete_items([1])
        assert np.array_equal(index.get_embedding(0), data[0]) and 1 in index
        assert index.topk_search(data[0], 1).ids.tolist() == [0]
        assert twin.topk_search(data[60], 1).ids.tolist() == [0]


class TestPersistence:
    def test_pickle_round_trip(self, built, queries):
        loaded = pickle.loads(pickle.dumps(built))
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
