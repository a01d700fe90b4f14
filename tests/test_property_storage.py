"""Property-based tests: the storage engine against a reference model.

Hypothesis drives random operation sequences (upserts, deletes, edges,
embeddings, vacuums, snapshots) against both the real engine and a trivial
dict-based model; every interleaving must agree.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Attribute, AttrType, GraphSchema, Metric
from repro.graph.storage import GraphStore

DIM = 4


def make_store(segment_size=4):
    schema = GraphSchema()
    schema.create_vertex_type(
        "V",
        [Attribute("id", AttrType.INT, primary_key=True), Attribute("x", AttrType.INT)],
    )
    schema.create_edge_type("e", "V", "V")
    schema.add_embedding_attribute("V", "emb", dimension=DIM, metric=Metric.L2)
    return GraphStore(schema, segment_size=segment_size)


op_strategy = st.one_of(
    st.tuples(st.just("upsert"), st.integers(0, 9), st.integers(0, 100)),
    st.tuples(st.just("delete"), st.integers(0, 9)),
    st.tuples(st.just("edge"), st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.just("vacuum")),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(op_strategy, min_size=1, max_size=25))
def test_storage_matches_model(ops):
    store = make_store()
    model_attrs: dict[int, int] = {}
    model_edges: set[tuple[int, int]] = set()
    for op in ops:
        if op[0] == "upsert":
            _, pk, x = op
            with store.begin() as txn:
                txn.upsert_vertex("V", pk, {"x": x})
            model_attrs[pk] = x
        elif op[0] == "delete":
            _, pk = op
            with store.begin() as txn:
                txn.delete_vertex("V", pk)
            model_attrs.pop(pk, None)
            model_edges = {
                (a, b) for a, b in model_edges if a != pk and b != pk
            }
        elif op[0] == "edge":
            _, a, b = op
            if a in model_attrs and b in model_attrs:
                with store.begin() as txn:
                    txn.add_edge("e", a, b)
                model_edges.add((a, b))
        elif op[0] == "vacuum":
            store.vacuum()

    with store.snapshot() as snap:
        live = {}
        for vid, row in snap.scan("V"):
            live[row["id"]] = row["x"]
        assert live == model_attrs
        # deleting a vertex drops its pk; re-inserting revives it, so every
        # surviving model edge whose endpoints are live must be traversable
        for a, b in model_edges:
            if a in model_attrs and b in model_attrs:
                va = snap.vid_for_pk("V", a)
                targets = snap.neighbors("V", va, "e")
                vb = snap.vid_for_pk("V", b)
                assert vb in targets


emb_op = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 7), st.integers(0, 50)),
    st.tuples(st.just("del"), st.integers(0, 7)),
    st.tuples(st.just("vacuum")),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(emb_op, min_size=1, max_size=20))
def test_embedding_store_matches_model(ops):
    """get_embedding must always reflect the latest committed write,
    regardless of how vacuums interleave."""
    from repro.core.service import EmbeddingService
    from repro.core.vacuum import VacuumManager

    store = make_store()
    service = EmbeddingService(store.schema, segment_size=4)
    store.register_embedding_hook(service.on_commit)
    vacuum = VacuumManager(store, service)
    model: dict[int, int] = {}

    with store.begin() as txn:
        for pk in range(8):
            txn.upsert_vertex("V", pk, {"x": 0})

    for op in ops:
        if op[0] == "set":
            _, pk, seed = op
            vec = np.full(DIM, float(seed), dtype=np.float32)
            with store.begin() as txn:
                txn.set_embedding("V", pk, "emb", vec)
            model[pk] = seed
        elif op[0] == "del":
            _, pk = op
            with store.begin() as txn:
                txn.delete_embedding("V", pk, "emb")
            model.pop(pk, None)
        else:
            vacuum.run_once()

    estore = service.store("V", "emb")
    for pk in range(8):
        vid = store.vid_for_pk("V", pk)
        value = estore.get_embedding(vid)
        if pk in model:
            assert value is not None
            assert value[0] == model[pk]
        else:
            assert value is None


@settings(max_examples=30, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 1000), min_size=4, max_size=24, unique=True),
    k=st.integers(1, 5),
)
def test_search_always_returns_true_nearest_after_vacuum(seeds, k):
    """Engine-level invariant: with exact-capable ef, merged per-segment
    top-k equals brute force over all live vectors."""
    from repro.core.service import EmbeddingService
    from repro.core.vacuum import VacuumManager
    from repro.core import action
    from repro.types import batch_distances

    store = make_store(segment_size=4)
    service = EmbeddingService(store.schema, segment_size=4)
    store.register_embedding_hook(service.on_commit)
    VacuumManager(store, service)
    vectors = {}
    with store.begin() as txn:
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            vec = rng.standard_normal(DIM).astype(np.float32)
            txn.upsert_vertex("V", i, {"x": 0})
            txn.set_embedding("V", i, "emb", vec)
            vectors[i] = vec
    vm = VacuumManager(store, service)
    vm.run_once()
    estore = service.store("V", "emb")
    query = np.zeros(DIM, dtype=np.float32)
    with store.snapshot() as snap:
        result, _ = action.topk(estore, query, min(k, len(seeds)), snap.tid, ef=4096)
    matrix = np.stack([vectors[i] for i in sorted(vectors)])
    dists = batch_distances(query, matrix, Metric.L2)
    expected = set(np.argsort(dists, kind="stable")[: min(k, len(seeds))].tolist())
    got = {vid for _, vid in result}  # vid == insert order here
    # allow ties at the boundary
    boundary = sorted(dists)[min(k, len(seeds)) - 1]
    for vid in got:
        assert dists[vid] <= boundary + 1e-5
