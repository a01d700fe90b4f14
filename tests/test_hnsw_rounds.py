"""The round-based layer search against its own width-1 order.

``repro.index.hnsw`` expands ``ef // ROUND_SHARE`` candidates per round;
patching ``ROUND_SHARE`` past any ``ef`` gives the classic pop-one-expand-one
loop (bit-identical to the pre-round implementation), which is the reference
every test here compares the shipped width against.
"""

import pickle

import numpy as np
import pytest

import repro.index.hnsw as hnsw_module
from repro.index import HNSWIndex
from repro.types import Metric

ONE_AT_A_TIME = 1 << 30


def clustered(rng, centers, count):
    pick = rng.integers(0, centers.shape[0], size=count)
    return (centers[pick] + rng.standard_normal((count, centers.shape[1]))).astype(np.float32)


def search_all(index, queries, k, ef, **kwargs):
    return [index.topk_search(q, k, ef=ef, **kwargs) for q in queries]


class TestRoundsEqualWidthOne:
    """Where both orders reach every row, they return the same answer."""

    @pytest.fixture(params=[Metric.L2, Metric.IP, Metric.COSINE], ids=lambda m: m.value)
    def small(self, request):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((60, 12)).astype(np.float32)
        index = HNSWIndex(12, request.param, M=6, ef_construction=48, seed=5)
        index.update_items(np.arange(60), data)
        queries = rng.standard_normal((25, 12)).astype(np.float32)
        return index, queries

    def both(self, monkeypatch, index, queries, k, ef, **kwargs):
        wide = search_all(index, queries, k, ef, **kwargs)
        monkeypatch.setattr(hnsw_module, "ROUND_SHARE", ONE_AT_A_TIME)
        narrow = search_all(index, queries, k, ef, **kwargs)
        return wide, narrow

    def assert_same(self, wide, narrow):
        # Same rows in the same order; a row's distance may differ in the last
        # place, because BLAS sums a matvec row differently in a taller block.
        for got, want in zip(wide, narrow):
            assert got.ids.tolist() == want.ids.tolist()
            np.testing.assert_allclose(got.distances, want.distances, rtol=1e-5)

    def test_plain(self, small, monkeypatch):
        index, queries = small
        self.assert_same(*self.both(monkeypatch, index, queries, 10, 64))

    def test_with_mask(self, small, monkeypatch):
        index, queries = small
        mask = np.arange(60) % 3 != 0
        wide, narrow = self.both(monkeypatch, index, queries, 10, 64, filter_fn=mask)
        self.assert_same(wide, narrow)
        assert all(mask[result.ids].all() for result in wide)

    def test_with_tombstones(self, small, monkeypatch):
        index, queries = small
        index.delete_items(list(range(0, 60, 4)))
        wide, narrow = self.both(monkeypatch, index, queries, 10, 64)
        self.assert_same(wide, narrow)
        assert all((result.ids % 4 != 0).all() for result in wide)

    def test_k_beyond_live_rows(self, small, monkeypatch):
        index, queries = small
        index.delete_items(list(range(30)))
        wide, narrow = self.both(monkeypatch, index, queries, 100, None)
        self.assert_same(wide, narrow)
        assert all(sorted(result.ids.tolist()) == list(range(30, 60)) for result in wide)


class TestRoundsOnAPruningIndex:
    """4 000 rows: the beam really prunes, so width trades evaluations for calls."""

    @pytest.fixture(scope="class")
    def big(self):
        rng = np.random.default_rng(8)
        centers = rng.standard_normal((32, 32)).astype(np.float32) * 0.4
        data = clustered(rng, centers, 4000)
        queries = clustered(rng, centers, 300)
        index = HNSWIndex(32, Metric.L2, seed=3)
        index.update_items(np.arange(4000), data)
        exact = (data * data).sum(1)[None, :] - 2.0 * (queries @ data.T)  # L2 up to a per-query shift
        truth = np.argsort(exact, axis=1)[:, :10]
        return index, queries, truth

    @staticmethod
    def measure(index, queries, truth, ef):
        before = index.stats.num_distance_computations
        found = search_all(index, queries, 10, ef)
        evals = (index.stats.num_distance_computations - before) / len(queries)
        hits = sum(len(set(r.ids.tolist()) & set(t.tolist())) for r, t in zip(found, truth))
        return hits / truth.size, evals

    def test_recall_not_below_width_one_and_evaluations_bounded(self, big, monkeypatch):
        index, queries, truth = big
        shipped = {ef: self.measure(index, queries, truth, ef) for ef in (16, 64, 128)}
        monkeypatch.setattr(hnsw_module, "ROUND_SHARE", ONE_AT_A_TIME)
        for ef, (recall, evals) in shipped.items():
            narrow_recall, narrow_evals = self.measure(index, queries, truth, ef)
            assert recall >= narrow_recall, (ef, recall, narrow_recall)
            if ef == 64:
                assert evals <= 1.08 * narrow_evals, (evals, narrow_evals)

    def test_rounds_are_fewer_than_expansions(self, big, monkeypatch):
        index, queries, _ = big
        before = index.stats.num_hops
        search_all(index, queries[:50], 10, 64)
        wide_rounds = index.stats.num_hops - before
        monkeypatch.setattr(hnsw_module, "ROUND_SHARE", ONE_AT_A_TIME)
        before = index.stats.num_hops
        search_all(index, queries[:50], 10, 64)
        assert wide_rounds * 3 < index.stats.num_hops - before


class TestFilterForms:
    def test_callable_equals_mask_and_runs_once_per_reached_row(self, rng):
        data = rng.standard_normal((600, 16)).astype(np.float32)
        index = HNSWIndex(16, Metric.L2, M=8, ef_construction=64)
        index.update_items(np.arange(600), data)
        index.delete_items([3, 30, 300])
        mask = rng.random(600) < 0.4
        for query in rng.standard_normal((20, 16)).astype(np.float32):
            calls: dict[int, int] = {}

            def allowed(ext_id: int) -> bool:
                calls[ext_id] = calls.get(ext_id, 0) + 1
                return bool(mask[ext_id])

            evals = index.stats.num_distance_computations
            by_call = index.topk_search(query, 10, ef=48, filter_fn=allowed)
            evals = index.stats.num_distance_computations - evals
            by_mask = index.topk_search(query, 10, ef=48, filter_fn=mask)
            assert by_call.ids.tolist() == by_mask.ids.tolist()
            assert np.array_equal(by_call.distances, by_mask.distances)
            assert max(calls.values()) == 1
            assert len(calls) <= evals  # only rows the search reached
            assert not {3, 30, 300} & set(calls)  # tombstones are not asked about


class TestLinkPadding:
    """-1 at and beyond every row's count is an invariant of ``_links0``."""

    @staticmethod
    def assert_padded(index):
        count = index._count
        tail = np.arange(index._links0_width) >= index._links0_cnt[:count, None]
        assert (index._links0[:count][tail] == -1).all()
        assert (index._links0[:count][~tail] >= 0).all()

    def test_after_prunes_reuse_and_reload(self, rng):
        data = rng.standard_normal((400, 8)).astype(np.float32)
        index = HNSWIndex(8, Metric.L2, M=4, ef_construction=32)
        index.update_items(np.arange(400), data)
        # Prunes happened: some list was cut back from the slack width.
        assert index._links0_cnt[:400].max() <= index._links0_width
        assert index._links0_cnt[:400].min() < index._links0_width
        self.assert_padded(index)
        index.update_items(np.arange(0, 400, 5), data[::5] + 0.5)
        self.assert_padded(index)
        self.assert_padded(pickle.loads(pickle.dumps(index)))
        self.assert_padded(index.clone())

    def test_setstate_blanks_the_tail_of_an_older_state(self, rng):
        data = rng.standard_normal((80, 8)).astype(np.float32)
        index = HNSWIndex(8, Metric.L2, M=4, ef_construction=32)
        index.update_items(np.arange(80), data)
        state = index.__getstate__()
        # What a pre-invariant build pickled: pruned ids left beyond the count.
        count = state["_count"]
        tail = np.arange(state["_links0_width"]) >= state["_links0_cnt"][:count, None]
        state["_links0"][:count][tail] = 7
        loaded = HNSWIndex.__new__(HNSWIndex)
        loaded.__setstate__(state)
        self.assert_padded(loaded)
        query = data[11]
        assert loaded.topk_search(query, 5).ids.tolist() == index.topk_search(query, 5).ids.tolist()


class TestMidShiftList:
    def test_an_id_listed_twice_is_returned_once(self, rng):
        """What a lock-free reader can see while a row reuse closes a gap in a
        neighbour list: the moved id at both its old and its new position."""
        data = rng.standard_normal((40, 8)).astype(np.float32)
        index = HNSWIndex(8, Metric.L2, M=4, ef_construction=32)
        index.update_items(np.arange(40), data)
        for row in range(40):
            count = int(index._links0_cnt[row])
            if count < index._links0_width:
                index._links0[row, count] = index._links0[row, 0]
        for ef in (4, 40):  # one candidate per round, and five
            for query in data[:10]:
                ids = index.topk_search(query, 40, ef=ef).ids.tolist()
                assert len(ids) == len(set(ids)) == 40
