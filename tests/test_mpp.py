"""Tests for the MPP primitives (VertexAction / EdgeAction)."""

import threading

import pytest

from repro import Attribute, AttrType, GraphSchema
from repro.graph.mpp import HANDOFF_WORK, MPPExecutor, edge_action, vertex_action
from repro.graph.storage import GraphStore


@pytest.fixture
def store():
    schema = GraphSchema()
    schema.create_vertex_type(
        "Node",
        [Attribute("id", AttrType.INT, primary_key=True), Attribute("v", AttrType.INT)],
    )
    schema.create_edge_type("e", "Node", "Node")
    store = GraphStore(schema, segment_size=8)
    with store.begin() as txn:
        for i in range(30):  # 4 segments
            txn.upsert_vertex("Node", i, {"v": i * 2})
        for i in range(29):
            txn.add_edge("e", i, i + 1)
    return store


class TestVertexAction:
    def test_visits_every_live_vertex(self, store):
        with store.snapshot() as snap:
            out = vertex_action(snap, "Node", lambda vid, row: row["v"])
        assert sorted(out) == [i * 2 for i in range(30)]

    def test_none_results_dropped(self, store):
        with store.snapshot() as snap:
            out = vertex_action(
                snap, "Node", lambda vid, row: row["v"] if row["v"] > 40 else None
            )
        assert len(out) == len([i for i in range(30) if i * 2 > 40])

    def test_deterministic_segment_order(self, store):
        with store.snapshot() as snap:
            a = vertex_action(snap, "Node", lambda vid, row: vid)
            b = vertex_action(snap, "Node", lambda vid, row: vid)
        assert a == b

    def test_runs_in_pool_threads(self, store):
        names = set()

        def fn(vid, row):
            names.add(threading.current_thread().name)
            return None

        with store.snapshot() as snap:
            vertex_action(snap, "Node", fn, executor=MPPExecutor(max_workers=4))
        assert any(name.startswith("mpp") for name in names)

    def test_serial_mode(self, store):
        with store.snapshot() as snap:
            out = vertex_action(snap, "Node", lambda vid, row: 1, parallel=False)
        assert len(out) == 30

    def test_skips_deleted(self, store):
        with store.begin() as txn:
            txn.delete_vertex("Node", 5)
        with store.snapshot() as snap:
            out = vertex_action(snap, "Node", lambda vid, row: vid)
        assert len(out) == 29


class TestEdgeAction:
    def test_visits_every_edge(self, store):
        with store.snapshot() as snap:
            out = edge_action(snap, "Node", "e", lambda s, t, attrs: (s, t))
        assert len(out) == 29

    def test_reverse_traversal(self, store):
        with store.snapshot() as snap:
            fwd = set(edge_action(snap, "Node", "e", lambda s, t, a: (s, t)))
            rev = set(edge_action(snap, "Node", "e", lambda s, t, a: (t, s), reverse=True))
        assert fwd == rev


class TestExecutor:
    def test_context_manager_shutdown(self):
        with MPPExecutor(max_workers=2) as executor:
            assert executor.max_workers == 2
        assert executor._pool is None

    def test_map_segments_subset(self, store):
        executor = MPPExecutor(max_workers=2)
        with store.snapshot() as snap:
            out = executor.map_segments(
                lambda seg_no, state: seg_no, snap, "Node", seg_nos=[1, 3]
            )
        assert out == [1, 3]
        executor.shutdown()

    def test_map_pools_only_work_above_the_handoff_cost(self):
        """The fan-out rule: an item goes to the pool only when its estimated
        GIL-releasing work exceeds HANDOFF_WORK; everything else — steps that
        hold the GIL (work 0) and small scans — runs in the caller's thread."""
        caller = threading.current_thread().name

        def where(item):
            return item, threading.current_thread().name

        work = [0, HANDOFF_WORK + 1, HANDOFF_WORK, HANDOFF_WORK + 1]
        with MPPExecutor(max_workers=2) as executor:
            out = executor.map(where, "abcd", work)
            assert [item for item, _ in out] == list("abcd")
            assert [name == caller for _, name in out] == [True, False, True, False]
            assert all(name.startswith("mpp") for _, name in out[1::2])
            # parallel=False keeps meaning "never"; so does a lone item.
            assert all(
                name == caller for _, name in executor.map(where, "abcd", work, parallel=False)
            )
            assert executor.map(where, "a", [HANDOFF_WORK + 1]) == [("a", caller)]
        with MPPExecutor(max_workers=1) as executor:
            assert all(name == caller for _, name in executor.map(where, "abcd", work))
            assert executor._pool is None

    def test_map_raises_a_pooled_failure(self):
        def boom(item):
            raise ValueError(item)

        with MPPExecutor(max_workers=2) as executor, pytest.raises(ValueError):
            executor.map(boom, "ab", [HANDOFF_WORK + 1, HANDOFF_WORK + 1])
