"""Tests for graph pattern matching (frontier and binding projections)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Attribute, AttrType, GraphSchema, VertexSet
from repro.errors import GSQLSemanticError
from repro.graph.pattern import (
    EdgeHop,
    NodeMasks,
    NodePattern,
    PathPattern,
    _as_masks,
    _hop_types,
    _initial_members,
    _node_ok,
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


# ------------------------------------------------------- differential check
# The two enumerators the walk replaced, kept as its reference: a frontier
# loop over sets and a recursive depth-first generator.


def reference_frontier(snapshot, schema, pattern, node_filters=None, resolve_set=None):
    node_filters = _as_masks(snapshot, node_filters)
    resolve_set = resolve_set or (lambda name: None)
    positions = pattern.expanded_positions()
    hops = pattern.expanded_hops()

    first = positions[0]
    expected = _hop_types(schema, hops[0])[0] if hops else None
    frontier = _initial_members(
        snapshot, schema, first, expected,
        resolve_set, node_filters.get(first.alias or ""),
    )
    result = {}
    if first.alias:
        result[first.alias] = VertexSet(frontier, name=first.alias)

    for hop, node in zip(hops, positions[1:]):
        src_type, dst_type = _hop_types(schema, hop)
        reverse = hop.direction == "in"
        next_frontier = set()
        node_filter = node_filters.get(node.alias or "")
        for vtype, vid in frontier:
            if vtype != src_type:
                continue
            for target in snapshot.neighbors(vtype, vid, hop.edge_type, reverse=reverse):
                member = (dst_type, target)
                if member in next_frontier:
                    continue
                if _node_ok(snapshot, member, node, dst_type, resolve_set, node_filter):
                    next_frontier.add(member)
        frontier = next_frontier
        if node.alias:
            result[node.alias] = VertexSet(frontier, name=node.alias)
        if not frontier:
            break
    for node in positions:
        if node.alias and node.alias not in result:
            result[node.alias] = VertexSet(name=node.alias)
    return result


def reference_bindings(snapshot, schema, pattern, node_filters=None, resolve_set=None):
    node_filters = _as_masks(snapshot, node_filters)
    resolve_set = resolve_set or (lambda name: None)
    positions = pattern.expanded_positions()
    hops = pattern.expanded_hops()

    first = positions[0]
    expected = _hop_types(schema, hops[0])[0] if hops else None
    start = _initial_members(
        snapshot, schema, first, expected,
        resolve_set, node_filters.get(first.alias or ""),
    )

    def extend(index, member, binding):
        if index == len(hops):
            yield dict(binding)
            return
        hop = hops[index]
        node = positions[index + 1]
        src_type, dst_type = _hop_types(schema, hop)
        vtype, vid = member
        if vtype != src_type:
            return
        reverse = hop.direction == "in"
        node_filter = node_filters.get(node.alias or "")
        for target in snapshot.neighbors(vtype, vid, hop.edge_type, reverse=reverse):
            nxt = (dst_type, target)
            if not _node_ok(snapshot, nxt, node, dst_type, resolve_set, node_filter):
                continue
            if node.alias:
                binding[node.alias] = nxt
            yield from extend(index + 1, nxt, binding)
            if node.alias:
                del binding[node.alias]

    for member in start:
        binding = {}
        if first.alias:
            binding[first.alias] = member
        yield from extend(0, member, binding)


#: Hops a pattern may take: (source type, edge type, direction, target type).
_MOVES = [
    ("Person", "knows", "out", "Person"),
    ("Person", "hasCreator", "in", "Post"),
    ("Post", "hasCreator", "out", "Person"),
]

#: Per-alias filters: none, row-wise, columnar (a NumPy kernel with the same
#: row check behind it), or one that rejects everything, so the frontier
#: empties at that position.
_FILTER_KINDS = ["none", "rowwise", "columnar", "reject"]


def _age_filter(kind, modulus, snapshot):
    def check(vid, row):
        return kind != "reject" and row["age"] % modulus == 0

    if kind == "rowwise":
        return check
    if kind == "reject":
        return NodeMasks(snapshot, check, lambda state: np.zeros(state.size, dtype=bool))

    def column_mask(state):
        ages = state.column_array("age")
        return None if ages is None else ages % modulus == 0

    return NodeMasks(snapshot, check, column_mask)


@st.composite
def _graphs_and_patterns(draw):
    n_person = draw(st.integers(1, 9))
    n_post = draw(st.integers(0, 9))
    people = range(n_person)
    pairs = st.tuples(st.sampled_from(people), st.sampled_from(people))
    knows = draw(st.lists(pairs, min_size=n_person, max_size=3 * n_person))
    created = (
        draw(st.lists(st.tuples(st.integers(0, n_post - 1), st.sampled_from(people)),
                      min_size=n_post, max_size=2 * n_post))
        if n_post else []
    )
    gone_people = draw(st.sets(st.sampled_from(people), max_size=2))
    gone_posts = draw(st.sets(st.integers(0, n_post - 1), max_size=2)) if n_post else set()
    seed = draw(st.sets(st.tuples(
        st.sampled_from(["Person", "Post"]), st.integers(0, max(n_person, n_post) - 1)
    ), max_size=6))

    vtype = draw(st.sampled_from(["Person", "Post"]))
    labels = [draw(st.sampled_from([vtype, None, "Seed"]))]
    hops = []
    for _ in range(draw(st.sampled_from([0, 1, 2, 2, 3, 3]))):
        # Mostly a hop out of the current type; now and then any hop, which
        # drops every row of the wrong type.
        follows = [move for move in _MOVES if move[0] == vtype]
        _, edge_type, direction, vtype = draw(st.sampled_from(follows * 4 + _MOVES))
        repeat = draw(st.integers(1, 3)) if edge_type == "knows" else 1
        hops.append(EdgeHop(edge_type, direction, repeat))
        labels.append(draw(st.sampled_from([vtype, None, "Seed"])))
    if labels[0] is None and not hops:
        labels[0] = vtype  # a lone node needs a type
    aliases = [draw(st.sampled_from([f"a{i}", f"a{i}", None])) for i in range(len(labels))]
    filters = {
        alias: (draw(st.sampled_from(_FILTER_KINDS)), draw(st.integers(1, 3)))
        for alias in aliases if alias
    }
    return {
        "n_person": n_person, "n_post": n_post, "knows": knows, "created": created,
        "gone": [("Person", pk) for pk in gone_people] + [("Post", pk) for pk in gone_posts],
        "vacuum": draw(st.booleans()), "seed": seed,
        "pattern": PathPattern([NodePattern(a, lb) for a, lb in zip(aliases, labels)], hops),
        "filters": filters,
    }


def _build_store(case):
    schema = GraphSchema()
    for name in ("Person", "Post"):
        schema.create_vertex_type(
            name, [Attribute("id", AttrType.INT, primary_key=True), Attribute("age", AttrType.INT)]
        )
    schema.create_edge_type("knows", "Person", "Person", directed=False)
    schema.create_edge_type("hasCreator", "Post", "Person")
    store = GraphStore(schema, segment_size=4)
    with store.begin() as txn:
        for pk in range(case["n_person"]):
            txn.upsert_vertex("Person", pk, {"age": pk})
        for pk in range(case["n_post"]):
            txn.upsert_vertex("Post", pk, {"age": 2 * pk + 1})
        for a, b in case["knows"]:
            txn.add_edge("knows", a, b)
        for post, person in case["created"]:
            txn.add_edge("hasCreator", post, person)
    with store.begin() as txn:
        for vertex_type, pk in case["gone"]:
            txn.delete_vertex(vertex_type, pk)
    if case["vacuum"]:
        store.vacuum()
    return store


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_graphs_and_patterns())
def test_walk_matches_the_reference_enumerators(case):
    store = _build_store(case)
    seed = VertexSet(
        (vertex_type, store.vid_for_pk(vertex_type, pk))
        for vertex_type, pk in case["seed"]
        if store.vid_for_pk(vertex_type, pk) is not None
    )

    def resolve(name):
        return seed if name == "Seed" else None

    pattern = case["pattern"]
    with store.snapshot() as snap:

        def filters():
            return {
                alias: _age_filter(kind, modulus, snap)
                for alias, (kind, modulus) in case["filters"].items() if kind != "none"
            }

        def run(matcher):
            try:
                return matcher(snap, store.schema, pattern, filters(), resolve)
            except GSQLSemanticError as exc:
                return type(exc)

        expected = run(lambda *a: list(reference_bindings(*a)))
        assert run(lambda *a: list(match_bindings(*a))) == expected
        frontier = run(match_frontier)
        expected_frontier = run(reference_frontier)
        if isinstance(expected_frontier, dict):
            assert list(frontier) == list(expected_frontier)
            for alias, vset in expected_frontier.items():
                assert frontier[alias].members() == vset.members(), alias
        else:
            assert frontier == expected_frontier

