"""Tests for the update-vs-rebuild mechanics behind Figure 11.

An update of an id the index holds reuses the id's row: every such row of a
batch is unlinked (its in-neighbours get substitute edges), then the batch
is wired like a build, from each row's exact nearest live rows with each
list pruned at most once.  These tests pin what that costs against a build
and what the graph keeps under churn (row count, recall, degree).
"""

import pickle
import time

import numpy as np
import pytest

from repro.index import HNSWIndex
from repro.types import Metric


@pytest.fixture(scope="module")
def base():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((1200, 16)).astype(np.float32)
    index = HNSWIndex(16, Metric.L2, M=8, ef_construction=48)
    start = time.perf_counter()
    index.update_items(np.arange(1200), data)
    build_seconds = time.perf_counter() - start
    return index, data, build_seconds


class TestUpdateMechanics:
    def test_update_reuses_its_row(self, base):
        index, data, _ = base
        clone = pickle.loads(pickle.dumps(index))
        before_rows = clone._count
        moved = data[5] + 30.0
        clone.update_items([5], moved.reshape(1, -1))
        assert clone._count == before_rows  # the id's own row was rewritten
        assert len(clone) == 1200  # logical size unchanged
        assert np.array_equal(clone.get_embedding(5), moved)
        assert clone.stats.num_updates == index.stats.num_updates + 1
        # The old vector is gone: a search at the old position neither returns
        # id 5 at distance 0 nor finds it among the nearest at all.
        at_old = clone.topk_search(data[5], 10, ef=128)
        assert 5 not in at_old.ids.tolist()
        assert at_old.distances[0] > 0.0
        at_new = clone.topk_search(moved, 1, ef=64)
        assert at_new.ids.tolist() == [5]
        assert at_new.distances[0] == pytest.approx(0.0, abs=1e-3)
        # The pinned original still answers from the old graph.
        assert index.topk_search(data[5], 1, ef=64).ids.tolist() == [5]

    def test_update_cost_exceeds_fresh_insert(self, base):
        """The Figure-11 crossover mechanism: a rewrite pays the unlink and
        repair on top of a built row's wiring, and its candidates span the
        whole index, so it costs at least about what a built row did."""
        index, data, build_seconds = base
        per_insert = build_seconds / 1200
        clone = pickle.loads(pickle.dumps(index))
        rng = np.random.default_rng(4)
        ids = rng.choice(1200, size=100, replace=False)
        start = time.perf_counter()
        clone.update_items(ids.tolist(), data[ids] + 0.5)
        per_update = (time.perf_counter() - start) / 100
        assert per_update > 0.7 * per_insert  # at least comparable, usually >

    def test_small_update_beats_rebuild(self, base):
        index, data, build_seconds = base
        clone = pickle.loads(pickle.dumps(index))
        rng = np.random.default_rng(5)
        ids = rng.choice(1200, size=12, replace=False)  # 1%
        start = time.perf_counter()
        clone.update_items(ids.tolist(), data[ids] + 0.5)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5 * build_seconds

    def test_updated_index_quality_preserved(self, base):
        """After updates, search still finds the moved vectors."""
        index, data, _ = base
        clone = pickle.loads(pickle.dumps(index))
        rng = np.random.default_rng(6)
        ids = rng.choice(1200, size=60, replace=False)
        moved = data[ids] + 20.0
        clone.update_items(ids.tolist(), moved)
        hits = 0
        for row, ext_id in zip(moved[:20], ids[:20]):
            result = clone.topk_search(row, 1, ef=64)
            hits += int(result.ids[0] == ext_id)
        assert hits >= 18

    def test_monotone_update_cost(self, base):
        index, data, _ = base
        rng = np.random.default_rng(7)
        times = []
        for frac in (0.02, 0.1, 0.3):
            count = int(1200 * frac)
            ids = rng.choice(1200, size=count, replace=False)
            clone = pickle.loads(pickle.dumps(index))
            start = time.perf_counter()
            clone.update_items(ids.tolist(), data[ids] + 0.1)
            times.append(time.perf_counter() - start)
        assert times[0] < times[1] < times[2]


def recall_at_10(index, data, queries, ef):
    exact = (data * data).sum(1)[None, :] - 2.0 * (queries @ data.T)  # L2 up to a per-query shift
    truth = np.argsort(exact, axis=1)[:, :10]
    hits = 0
    for query, want in zip(queries, truth):
        got = index.topk_search(query, 10, ef=ef).ids.tolist()
        hits += len(set(got) & set(want.tolist()))
    return hits / truth.size


def clustered(rng, centers, count):
    pick = rng.integers(0, centers.shape[0], size=count)
    return (centers[pick] + rng.standard_normal((count, centers.shape[1]))).astype(np.float32)


def fresh_build(data, dim):
    index = HNSWIndex(dim, Metric.L2)
    index.update_items(np.arange(len(data)), data)
    return index


def turn_over(index, rng, centers):
    """Rewrite every id once, two per batch like a vacuum merge; returns the new data."""
    count = index._count
    data = clustered(rng, centers, count)
    order = rng.permutation(count)
    for start in range(0, count, 2):
        ids = order[start : start + 2]
        index.update_items(ids.tolist(), data[ids])
    return data


class TestRowReuse:
    def test_delete_then_upsert_revives_the_row(self, base):
        index, data, _ = base
        clone = pickle.loads(pickle.dumps(index))
        clone.delete_items([9])
        assert len(clone) == 1199 and 9 not in clone
        assert clone.stats.num_deleted == index.stats.num_deleted + 1
        clone.update_items([9], (data[9] + 2.0).reshape(1, -1))
        assert clone._count == 1200
        assert len(clone) == 1200 and 9 in clone
        assert clone.topk_search(data[9] + 2.0, 1, ef=64).ids.tolist() == [9]
        # Counters keep their meaning: one delete happened, one update happened.
        assert clone.stats.num_deleted == index.stats.num_deleted + 1
        assert clone.stats.num_updates == index.stats.num_updates + 1

    def test_update_entry_point_row(self, base):
        index, data, _ = base
        clone = pickle.loads(pickle.dumps(index))
        entry = clone._entry_point
        ext_id = int(clone._ids[entry])
        clone.update_items([ext_id], (data[ext_id] + 5.0).reshape(1, -1))
        assert clone._count == 1200
        # The row kept its (top) level, so it is the entry point again and
        # every other row is still reachable from it.
        assert clone._levels[entry] == clone._max_level
        hits = sum(
            int(clone.topk_search(data[i], 1, ef=64).ids[0] == i)
            for i in range(0, 1200, 40)
            if i != ext_id
        )
        assert hits >= 28
        assert clone.topk_search(data[ext_id] + 5.0, 1, ef=64).ids.tolist() == [ext_id]

    def test_update_the_only_row(self):
        index = HNSWIndex(4, Metric.L2)
        index.update_items([7], np.ones((1, 4), dtype=np.float32))
        index.update_items([7], np.full((1, 4), 3.0, dtype=np.float32))
        assert index._count == 1 and len(index) == 1
        result = index.topk_search(np.full(4, 3.0, dtype=np.float32), 5)
        assert result.ids.tolist() == [7]
        assert result.distances[0] == pytest.approx(0.0, abs=1e-5)

    def test_rows_never_exceed_distinct_ids(self, rng):
        index = HNSWIndex(8, Metric.L2, M=4, ef_construction=32)
        seen: set[int] = set()
        for _ in range(60):
            ids = rng.choice(90, size=6, replace=False)
            if rng.random() < 0.3:
                index.delete_items(ids[:3].tolist())
            index.update_items(ids.tolist(), rng.standard_normal((6, 8)).astype(np.float32))
            seen.update(ids.tolist())
            assert index._count == len(seen)

    def test_eight_turnovers_of_400_ids(self):
        rng = np.random.default_rng(12)
        centers = rng.standard_normal((32, 128)).astype(np.float32) * 0.4
        data = clustered(rng, centers, 400)
        queries = clustered(rng, centers, 300)
        index = fresh_build(data, 128)
        for _ in range(8):
            data = turn_over(index, rng, centers)
            assert index._count == 400
        assert len(index) == 400
        churned = recall_at_10(index, data, queries, ef=16)
        fresh = recall_at_10(fresh_build(data, 128), data, queries, ef=16)
        assert churned >= fresh - 0.02, (churned, fresh)

    @pytest.mark.slow
    def test_three_turnovers_of_4000_ids(self):
        """Recall stays level and every list stays full.

        The degree assertion is what pins the repair: without the substitute
        edge the same run ends at mean degree 27 with rows left linkless, and
        recall settles about 0.005 lower (EXPERIMENTS, PR 22 churn table).
        """
        rng = np.random.default_rng(13)
        centers = rng.standard_normal((32, 128)).astype(np.float32) * 0.4
        data = clustered(rng, centers, 4000)
        queries = clustered(rng, centers, 1000)
        index = fresh_build(data, 128)
        recalls = []
        for _ in range(3):
            data = turn_over(index, rng, centers)
            assert index._count == 4000
            recalls.append(recall_at_10(index, data, queries, ef=64))
        fresh = recall_at_10(fresh_build(data, 128), data, queries, ef=64)
        assert recalls[2] >= fresh - 0.01, (recalls, fresh)
        assert recalls[2] >= recalls[1] - 0.005, recalls
        degrees = index._links0_cnt[:4000]
        assert degrees.min() >= index.M0 and degrees.mean() > 34.0


class TestThroughTheStore:
    def test_pinned_reader_keeps_the_pre_update_graph(self):
        """The index merge rewrites rows of its private clone only."""
        from repro import Attribute, AttrType, TigerVectorDB
        from repro.core.search import vector_search_merged

        rng = np.random.default_rng(31)
        vectors = rng.standard_normal((100, 8)).astype(np.float32)
        db = TigerVectorDB(segment_size=128)
        db.schema.create_vertex_type("Doc", [Attribute("id", AttrType.INT, primary_key=True)])
        db.schema.add_embedding_attribute("Doc", "vec", dimension=8, model="m", metric=Metric.L2)
        with db.begin() as txn:
            for i, vector in enumerate(vectors):
                txn.upsert_vertex("Doc", i, {})
                txn.set_embedding("Doc", i, "vec", vector)
        db.vacuum()
        segment = db.service.store("Doc", "vec").segment(0)
        old_index = segment.index
        assert old_index._count == 100

        pinned = db.snapshot()
        moved = vectors[5] + 40.0
        with db.begin() as txn:
            txn.set_embedding("Doc", 5, "vec", moved)
        db.vacuum()
        assert segment.index is not old_index
        assert segment.index._count == 100  # row reused, not appended
        assert old_index._count == 100
        assert np.array_equal(old_index.get_embedding(5), vectors[5])

        def top1(snapshot, query):
            ((distance, _, vid),) = vector_search_merged(db.service, snapshot, ["Doc.vec"], query, 1)
            return vid, distance

        vid = db.vid_for("Doc", 5)
        old_vid, old_distance = top1(pinned, vectors[5])
        assert old_vid == vid and old_distance == pytest.approx(0.0, abs=1e-4)
        with db.snapshot() as fresh:
            new_vid, new_distance = top1(fresh, moved)
            assert new_vid == vid and new_distance == pytest.approx(0.0, abs=1e-3)
            stale_vid, stale_distance = top1(fresh, vectors[5])
            assert stale_vid != vid and stale_distance > 0.0
        pinned.release()
        db.close()
