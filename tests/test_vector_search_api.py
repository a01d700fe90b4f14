"""Tests for the VectorSearch() function and the VertexSet types."""

import numpy as np
import pytest

from repro import Metric, RankedVertexSet, VertexSet
from repro.core.search import vector_search
from repro.errors import (
    DimensionMismatchError,
    EmbeddingCompatibilityError,
    VectorSearchError,
)
from repro.graph.accumulators import MapAccum
from repro.serve import QueryServer, ServeConfig
from repro.telemetry import Telemetry, use_telemetry


class TestVertexSet:
    def test_algebra(self):
        a = VertexSet([("P", 1), ("P", 2)])
        b = VertexSet([("P", 2), ("P", 3)])
        assert (a | b).members() == {("P", 1), ("P", 2), ("P", 3)}
        assert (a & b).members() == {("P", 2)}
        assert (a - b).members() == {("P", 1)}

    def test_typed_views(self):
        s = VertexSet([("Post", 1), ("Comment", 1), ("Post", 2)])
        assert s.vertex_types() == {"Post", "Comment"}
        assert s.vids_of_type("Post") == {1, 2}
        assert s.restrict_to_type("Comment").members() == {("Comment", 1)}

    def test_membership_and_len(self):
        s = VertexSet()
        assert not s
        s.add("P", 1)
        assert ("P", 1) in s
        assert len(s) == 1

    def test_equality(self):
        assert VertexSet([("P", 1)]) == VertexSet([("P", 1)])
        assert VertexSet([("P", 1)]) != VertexSet([("P", 2)])

    def test_ranked_preserves_order(self):
        ranked = RankedVertexSet([(("P", 3), 0.1), (("P", 1), 0.5)])
        assert [m for m, _ in ranked.ranking] == [("P", 3), ("P", 1)]
        assert ranked.distances()[("P", 1)] == 0.5
        assert ("P", 3) in ranked  # behaves as a set too


class TestVectorSearchFunction:
    def test_basic_topk(self, loaded_post_db):
        db = loaded_post_db
        q = db._test_vectors[17]
        with db.snapshot() as snap:
            out = vector_search(
                db.service, snap, ["Post.content_emb"], q, 5
            )
        assert len(out) == 5
        assert ("Post", db.vid_for("Post", 17)) in out

    def test_filter_respected(self, loaded_post_db):
        db = loaded_post_db
        q = db._test_vectors[17]
        allowed = VertexSet(
            ("Post", db.vid_for("Post", pk)) for pk in range(0, 200, 4)
        )
        with db.snapshot() as snap:
            out = vector_search(
                db.service, snap, ["Post.content_emb"], q, 5,
                filter=allowed,
            )
        assert len(out) == 5
        assert all(member in allowed for member in out)

    def test_distance_map_filled(self, loaded_post_db):
        db = loaded_post_db
        dmap = MapAccum()
        with db.snapshot() as snap:
            out = vector_search(
                db.service, snap, ["Post.content_emb"], db._test_vectors[3], 4,
                distance_map=dmap,
            )
        assert len(dmap) == 4
        assert all(member in out for member in dmap.value)
        assert min(dmap.value.values()) == pytest.approx(0.0, abs=1e-3)

    def test_dimension_mismatch(self, loaded_post_db):
        db = loaded_post_db
        with db.snapshot() as snap:
            with pytest.raises(DimensionMismatchError):
                vector_search(db.service, snap, ["Post.content_emb"], np.zeros(3), 5)

    def test_invalid_k(self, loaded_post_db):
        db = loaded_post_db
        with db.snapshot() as snap:
            with pytest.raises(VectorSearchError):
                vector_search(
                    db.service, snap, ["Post.content_emb"], np.zeros(16), 0
                )

    def test_empty_filter_returns_empty(self, loaded_post_db):
        db = loaded_post_db
        with db.snapshot() as snap:
            out = vector_search(
                db.service, snap, ["Post.content_emb"], db._test_vectors[0], 5,
                filter=VertexSet(),
            )
        assert len(out) == 0

    def test_facade_method(self, loaded_post_db):
        db = loaded_post_db
        out = db.vector_search(["Post.content_emb"], db._test_vectors[9], 3)
        assert ("Post", db.vid_for("Post", 9)) in out


class TestMultiTypeSearch:
    @pytest.fixture
    def multi_db(self, rng):
        from tests.conftest import make_post_db

        db = make_post_db()
        db.schema.create_vertex_type(
            "Comment",
            [
                __import__("repro").Attribute("id", __import__("repro").AttrType.INT, primary_key=True),
            ],
        )
        db.schema.add_embedding_attribute(
            "Comment", "content_emb", dimension=16, model="GPT4", metric=Metric.L2
        )
        post_vecs = rng.standard_normal((40, 16)).astype(np.float32)
        comment_vecs = rng.standard_normal((40, 16)).astype(np.float32) + 10.0
        with db.begin() as txn:
            for i in range(40):
                txn.upsert_vertex("Post", i, {})
                txn.set_embedding("Post", i, "content_emb", post_vecs[i])
                txn.upsert_vertex("Comment", i, {})
                txn.set_embedding("Comment", i, "content_emb", comment_vecs[i])
        db.vacuum()
        db._post_vecs, db._comment_vecs = post_vecs, comment_vecs
        yield db
        db.close()

    def test_search_across_types(self, multi_db):
        db = multi_db
        # query near the Comment cloud: results should be Comments
        q = np.full(16, 10.0, np.float32)
        with db.snapshot() as snap:
            out = vector_search(
                db.service, snap,
                ["Post.content_emb", "Comment.content_emb"], q, 5,
            )
        assert all(t == "Comment" for t, _ in out)
        # query near the Post cloud: results should be Posts
        with db.snapshot() as snap:
            out = vector_search(
                db.service, snap,
                ["Post.content_emb", "Comment.content_emb"],
                np.zeros(16, np.float32), 5,
            )
        assert all(t == "Post" for t, _ in out)

    def test_incompatible_rejected(self, multi_db):
        db = multi_db
        db.schema.add_embedding_attribute(
            "Comment", "other_emb", dimension=8, model="BERT", metric=Metric.L2
        )
        with db.snapshot() as snap:
            with pytest.raises(EmbeddingCompatibilityError):
                vector_search(
                    db.service, snap,
                    ["Post.content_emb", "Comment.other_emb"],
                    np.zeros(16, np.float32), 5,
                )

    def test_filter_spanning_types(self, multi_db):
        db = multi_db
        allowed = VertexSet()
        for pk in range(0, 40, 2):
            allowed.add("Post", db.vid_for("Post", pk))
            allowed.add("Comment", db.vid_for("Comment", pk))
        q = np.full(16, 5.0, np.float32)  # between the clouds
        with db.snapshot() as snap:
            out = vector_search(
                db.service, snap,
                ["Post.content_emb", "Comment.content_emb"], q, 8,
                filter=allowed,
            )
        assert len(out) == 8
        assert all(member in allowed for member in out)


class TestNonFiniteVectors:
    """A NaN or infinite entry is refused with a typed error at every door.

    No distance to such a vector orders: the index would link it at random
    and a search ranking it would answer wrongly without an error.
    """

    def test_set_embedding_rejects_infinite_vector(self, loaded_post_db):
        db = loaded_post_db
        with pytest.raises(VectorSearchError, match="NaN or infinite"):
            with db.begin() as txn:
                txn.set_embedding("Post", 3, "content_emb", np.full(16, np.inf))
        db.vacuum()  # nothing was committed, so nothing reaches the index
        assert np.array_equal(
            db.service.store("Post", "content_emb").get_embedding(db.vid_for("Post", 3)),
            db._test_vectors[3],
        )

    def test_bulk_load_rejects_nan_row(self, post_db):
        vectors = np.ones((3, 16), dtype=np.float32)
        vectors[1, 5] = np.nan
        with post_db.begin() as txn:
            for i in range(3):
                txn.upsert_vertex("Post", i, {"language": "en", "length": 1})
        with pytest.raises(VectorSearchError, match="NaN or infinite"):
            post_db.bulk_load_embeddings("Post", "content_emb", [0, 1, 2], vectors)

    def test_query_with_nan_rejected(self, loaded_post_db):
        db = loaded_post_db
        q = db._test_vectors[17].copy()
        q[0] = np.nan
        with pytest.raises(VectorSearchError, match="NaN or infinite"):
            db.vector_search(["Post.content_emb"], q, 5)
        with pytest.raises(VectorSearchError, match="NaN or infinite"):
            db.vector_search_batch(["Post.content_emb"], np.stack([db._test_vectors[1], q]), 5)
        for text in (
            "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, qv) LIMIT 5",
            "SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, qv) < 2.0",
        ):
            with pytest.raises(VectorSearchError, match="NaN or infinite"):
                db.gsql.run(text, qv=q.tolist())

    def test_served_nan_query_fails_alone(self, loaded_post_db):
        """Admin requests for one ``(attributes, k)`` share a fused batch;
        a NaN query is refused at the door, so the riders queued around it
        still fuse and answer exactly as the direct path does.
        """
        db = loaded_post_db
        config = ServeConfig(
            workers=1,
            enable_batching=True,
            enable_cache=False,
            batch_window_seconds=0.2,
        )
        bad = db._test_vectors[17].copy()
        bad[0] = np.nan
        good = [db._test_vectors[i] for i in (1, 2, 5, 8, 13, 21, 34, 55)]
        telemetry = Telemetry()
        with use_telemetry(telemetry), QueryServer(db, config) as server:
            futures = [server.submit_search(["Post.content_emb"], q, 5) for q in good[:2]]
            with pytest.raises(VectorSearchError, match="NaN or infinite"):
                server.submit_search(["Post.content_emb"], bad, 5)
            futures += [server.submit_search(["Post.content_emb"], q, 5) for q in good[2:]]
            results = [future.result(timeout=30) for future in futures]
        for q, got in zip(good, results):
            assert sorted(got) == sorted(db.vector_search(["Post.content_emb"], q, 5))
        assert telemetry.registry.snapshot()["counters"].get("serve.fused_queries", 0) > 0
