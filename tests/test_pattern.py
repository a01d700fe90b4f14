"""Tests for graph pattern matching (frontier and binding modes)."""

import pytest

from repro import Attribute, AttrType, GraphSchema, VertexSet
from repro.errors import GSQLSemanticError
from repro.graph.pattern import (
    EdgeHop,
    NodePattern,
    PathPattern,
    match_bindings,
    match_frontier,
)
from repro.graph.storage import GraphStore


@pytest.fixture
def store():
    schema = GraphSchema()
    schema.create_vertex_type(
        "Person",
        [Attribute("id", AttrType.INT, primary_key=True), Attribute("name", AttrType.STRING)],
    )
    schema.create_vertex_type(
        "Post",
        [Attribute("id", AttrType.INT, primary_key=True), Attribute("lang", AttrType.STRING)],
    )
    schema.create_edge_type("knows", "Person", "Person", directed=False)
    schema.create_edge_type("hasCreator", "Post", "Person")
    store = GraphStore(schema, segment_size=8)
    with store.begin() as txn:
        for i in range(6):
            txn.upsert_vertex("Person", i, {"name": f"p{i}"})
        # chain: 0-1-2-3-4-5
        for i in range(5):
            txn.add_edge("knows", i, i + 1)
        for i in range(12):
            txn.upsert_vertex("Post", i, {"lang": "en" if i % 2 else "fr"})
            txn.add_edge("hasCreator", i, i % 6)
    return store


def vids(store, vertex_type, pks):
    return {(vertex_type, store.vid_for_pk(vertex_type, pk)) for pk in pks}


class TestFrontier:
    def test_single_node_scan(self, store):
        with store.snapshot() as snap:
            pattern = PathPattern([NodePattern("s", "Person")])
            out = match_frontier(snap, store.schema, pattern)
            assert out["s"].members() == vids(store, "Person", range(6))

    def test_one_hop(self, store):
        with store.snapshot() as snap:
            pattern = PathPattern(
                [NodePattern("s", "Person"), NodePattern("t", "Person")],
                [EdgeHop("knows")],
            )
            filters = {"s": lambda vid, row: row["name"] == "p0"}
            out = match_frontier(snap, store.schema, pattern, node_filters=filters)
            assert out["t"].members() == vids(store, "Person", [1])

    def test_repeat_hops(self, store):
        with store.snapshot() as snap:
            pattern = PathPattern(
                [NodePattern("s", "Person"), NodePattern("t", "Person")],
                [EdgeHop("knows", repeat=2)],
            )
            filters = {"s": lambda vid, row: row["name"] == "p0"}
            out = match_frontier(snap, store.schema, pattern, node_filters=filters)
            # 2 hops from p0 on an undirected chain: {0, 2}
            assert out["t"].members() == vids(store, "Person", [0, 2])

    def test_reverse_direction(self, store):
        with store.snapshot() as snap:
            pattern = PathPattern(
                [NodePattern("p", "Person"), NodePattern("m", "Post")],
                [EdgeHop("hasCreator", direction="in")],
            )
            filters = {"p": lambda vid, row: row["name"] == "p2"}
            out = match_frontier(snap, store.schema, pattern, node_filters=filters)
            assert out["m"].members() == vids(store, "Post", [2, 8])

    def test_target_filter(self, store):
        with store.snapshot() as snap:
            pattern = PathPattern(
                [NodePattern("p", "Person"), NodePattern("m", "Post")],
                [EdgeHop("hasCreator", direction="in")],
            )
            filters = {
                "p": lambda vid, row: row["name"] == "p1",
                "m": lambda vid, row: row["lang"] == "en",
            }
            out = match_frontier(snap, store.schema, pattern, node_filters=filters)
            assert out["m"].members() == vids(store, "Post", [1, 7])

    def test_vertex_set_label(self, store):
        with store.snapshot() as snap:
            seed = VertexSet(vids(store, "Person", [0, 3]), name="Seed")
            pattern = PathPattern(
                [NodePattern("s", "Seed"), NodePattern("t", "Person")],
                [EdgeHop("knows")],
            )
            out = match_frontier(
                snap, store.schema, pattern,
                resolve_set=lambda name: seed if name == "Seed" else None,
            )
            assert out["t"].members() == vids(store, "Person", [1, 2, 4])

    def test_empty_frontier_short_circuits(self, store):
        with store.snapshot() as snap:
            pattern = PathPattern(
                [NodePattern("s", "Person"), NodePattern("t", "Person")],
                [EdgeHop("knows")],
            )
            filters = {"s": lambda vid, row: False}
            out = match_frontier(snap, store.schema, pattern, node_filters=filters)
            assert len(out["t"]) == 0

    def test_unlabeled_intermediate_inferred(self, store):
        with store.snapshot() as snap:
            pattern = PathPattern(
                [NodePattern("s", "Person"), NodePattern(), NodePattern("t", "Post")],
                [EdgeHop("knows"), EdgeHop("hasCreator", direction="in")],
            )
            filters = {"s": lambda vid, row: row["name"] == "p0"}
            out = match_frontier(snap, store.schema, pattern, node_filters=filters)
            # neighbor of p0 is p1; posts by p1: 1, 7
            assert out["t"].members() == vids(store, "Post", [1, 7])


class TestBindings:
    def test_enumerates_paths(self, store):
        with store.snapshot() as snap:
            pattern = PathPattern(
                [NodePattern("p", "Person"), NodePattern("m", "Post")],
                [EdgeHop("hasCreator", direction="in")],
            )
            rows = list(match_bindings(snap, store.schema, pattern))
            assert len(rows) == 12  # every post binds once
            assert all(set(r) == {"p", "m"} for r in rows)

    def test_limit(self, store):
        with store.snapshot() as snap:
            pattern = PathPattern(
                [NodePattern("p", "Person"), NodePattern("m", "Post")],
                [EdgeHop("hasCreator", direction="in")],
            )
            rows = list(match_bindings(snap, store.schema, pattern, limit=3))
            assert len(rows) == 3

    def test_multi_hop_bindings(self, store):
        with store.snapshot() as snap:
            pattern = PathPattern(
                [
                    NodePattern("a", "Post"),
                    NodePattern("u", "Person"),
                    NodePattern("b", "Post"),
                ],
                [EdgeHop("hasCreator"), EdgeHop("hasCreator", direction="in")],
            )
            filters = {"u": lambda vid, row: row["name"] == "p0"}
            rows = list(match_bindings(snap, store.schema, pattern, node_filters=filters))
            # p0 authored posts 0 and 6 -> 2x2 ordered pairs
            assert len(rows) == 4

    def test_bindings_match_frontier_targets(self, store):
        with store.snapshot() as snap:
            pattern = PathPattern(
                [NodePattern("s", "Person"), NodePattern("t", "Person")],
                [EdgeHop("knows", repeat=3)],
            )
            frontier = match_frontier(snap, store.schema, pattern)["t"].members()
            bound = {
                row["t"] for row in match_bindings(snap, store.schema, pattern)
            }
            assert bound == frontier


class TestValidation:
    def test_pattern_shape_checked(self):
        with pytest.raises(GSQLSemanticError):
            PathPattern([NodePattern("a", "X")], [EdgeHop("e")])

    def test_bad_direction(self):
        with pytest.raises(GSQLSemanticError):
            EdgeHop("e", direction="sideways")

    def test_bad_repeat(self):
        with pytest.raises(GSQLSemanticError):
            EdgeHop("e", repeat=0)

    def test_first_node_needs_type(self, store):
        with store.snapshot() as snap:
            pattern = PathPattern([NodePattern("s", None)])
            with pytest.raises(GSQLSemanticError):
                match_frontier(snap, store.schema, pattern)


class TestDeletedTarget:
    """An adjacency entry can outlive its target; the target is still no match."""

    @pytest.mark.parametrize("vacuum", [False, True], ids=["pre-vacuum", "post-vacuum"])
    def test_hop_does_not_reach_a_deleted_vertex(self, store, vacuum):
        gone = ("Person", store.vid_for_pk("Person", 1))
        with store.begin() as txn:
            txn.delete_vertex("Person", 1)
        if vacuum:
            store.vacuum()
        pattern = PathPattern(
            [NodePattern("s", "Person"), NodePattern("t", "Person")], [EdgeHop("knows")]
        )
        filters = {"s": lambda vid, row: row["name"] in ("p0", "p2")}  # none on t
        with store.snapshot() as snap:
            frontier = match_frontier(snap, store.schema, pattern, node_filters=filters)
            bound = {
                b["t"] for b in match_bindings(snap, store.schema, pattern, node_filters=filters)
            }
        assert frontier["t"].members() == bound == vids(store, "Person", [3])
        assert gone not in bound
