"""Tests for role-based access control over graph and vector data."""

import numpy as np
import pytest

from repro.core.auth import AuthorizationError, Role
from repro.errors import ReproError


class TestRoles:
    def test_admin_sees_everything(self, loaded_post_db):
        db = loaded_post_db
        admin = db.access.role("admin")
        assert admin.can_access_type("Post")
        assert admin.allows("Post", {"language": "xx"})

    def test_default_deny(self, loaded_post_db):
        role = Role("nobody")
        assert not role.can_access_type("Post")

    def test_predicate_rule(self):
        role = Role("en-only", {"Post": lambda row: row["language"] == "en"})
        assert role.allows("Post", {"language": "en"})
        assert not role.allows("Post", {"language": "fr"})

    def test_duplicate_role_rejected(self, loaded_post_db):
        loaded_post_db.access.create_role("x")
        with pytest.raises(ReproError):
            loaded_post_db.access.create_role("x")

    def test_unknown_role(self, loaded_post_db):
        with pytest.raises(AuthorizationError):
            loaded_post_db.access.role("ghost")


class TestAuthorizationBitmaps:
    def test_full_access_wraps_status(self, loaded_post_db):
        db = loaded_post_db
        db.access.create_role("reader", {"Post": True})
        with db.snapshot() as snap:
            bitmaps = db.access.authorization_bitmaps("reader", snap, "Post")
        assert sum(b.count() for b in bitmaps) == 200

    def test_no_access_empty(self, loaded_post_db):
        db = loaded_post_db
        db.access.create_role("blind", {"Post": False})
        with db.snapshot() as snap:
            bitmaps = db.access.authorization_bitmaps("blind", snap, "Post")
        assert sum(b.count() for b in bitmaps) == 0

    def test_predicate_bitmap(self, loaded_post_db):
        db = loaded_post_db
        db.access.create_role(
            "en-reader", {"Post": lambda row: row["language"] == "en"}
        )
        with db.snapshot() as snap:
            bitmaps = db.access.authorization_bitmaps("en-reader", snap, "Post")
        assert sum(b.count() for b in bitmaps) == 100  # half the posts are en

    def test_graph_and_vector_views_agree(self, loaded_post_db):
        """Unified governance: the same rule gates both access paths."""
        db = loaded_post_db
        db.access.create_role(
            "long-only", {"Post": lambda row: row["length"] > 250}
        )
        with db.snapshot() as snap:
            graph_view = db.access.visible_vertices("long-only", snap, "Post")
            bitmaps = db.access.authorization_bitmaps("long-only", snap, "Post")
        bitmap_count = sum(b.count() for b in bitmaps)
        assert len(graph_view) == bitmap_count


class TestAuthorizedSearch:
    def test_unauthorized_vectors_never_returned(self, loaded_post_db):
        db = loaded_post_db
        db.access.create_role(
            "fr-analyst", {"Post": lambda row: row["language"] == "fr"}
        )
        q = db._test_vectors[3]  # post 3 is "en" (odd pks are en)
        result = db.access.authorized_search(
            "fr-analyst", ["Post.content_emb"], q, k=5
        )
        pks = {db.pk_for(t, v) for t, v in result}
        assert len(result) == 5
        assert all(pk % 2 == 0 for pk in pks)  # only fr posts
        assert 3 not in pks

    def test_admin_sees_exact_nearest(self, loaded_post_db):
        db = loaded_post_db
        q = db._test_vectors[3]
        result = db.access.authorized_search("admin", ["Post.content_emb"], q, k=1)
        assert next(iter(result)) == ("Post", db.vid_for("Post", 3))

    def test_denied_type_returns_nothing(self, loaded_post_db):
        db = loaded_post_db
        db.access.create_role("no-posts", {"Post": False})
        result = db.access.authorized_search(
            "no-posts", ["Post.content_emb"], db._test_vectors[0], k=5
        )
        assert len(result) == 0

    def test_user_filter_intersects_authorization(self, loaded_post_db):
        from repro import VertexSet

        db = loaded_post_db
        db.access.create_role(
            "fr-only", {"Post": lambda row: row["language"] == "fr"}
        )
        # user filter: first 50 posts; authorization: fr (even) only
        user_filter = VertexSet(
            ("Post", db.vid_for("Post", pk)) for pk in range(50)
        )
        result = db.access.authorized_search(
            "fr-only", ["Post.content_emb"], db._test_vectors[0], k=10,
            filter=user_filter,
        )
        pks = {db.pk_for(t, v) for t, v in result}
        assert all(pk < 50 and pk % 2 == 0 for pk in pks)

    def test_invalid_k(self, loaded_post_db):
        from repro.errors import VectorSearchError

        db = loaded_post_db
        with pytest.raises(VectorSearchError):
            db.access.authorized_search(
                "admin", ["Post.content_emb"], db._test_vectors[0], k=0
            )

    def test_wrong_query_dimension_fails_typed(self, loaded_post_db):
        """A rule that leaves few rows flips the segment scan to brute
        force; a wrong-length query must be refused typed before it gets
        there, like at every other search entry point."""
        from repro.errors import DimensionMismatchError

        db = loaded_post_db
        db.access.create_role("one-post", {"Post": lambda row: row["length"] == 103})
        with pytest.raises(DimensionMismatchError):
            db.access.authorized_search(
                "one-post", ["Post.content_emb"], db._test_vectors[0][:5], k=3
            )
