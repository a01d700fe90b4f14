"""Role-based access control over graph and vector data (paper Sec. 1, 5.1).

One of the paper's arguments for a *unified* system is data governance: "a
single set of access controls (e.g., role-based access control) for both
vector data and graph data".  And the vector-search filter bitmap
explicitly marks "all deleted and **unauthorized** vectors as invalid"
(Sec. 5.1).  This module provides that layer:

- a :class:`Role` grants access per vertex type — everything, nothing, or a
  row predicate (``lambda attrs: ...``);
- an :class:`AccessController` registers roles and materializes
  *authorization bitmaps* (one per segment), so unauthorized vectors can
  never surface in results — the same mechanism that hides deleted rows;
- :meth:`AccessController.search_filter` makes "authorized" one more term
  of the search's one pre-filter: role masks ``&`` the request's own filter.
  There is no authorized search loop — :meth:`authorized_search` and the
  serving tiers (``QueryServer``, ``ElasticTier``) run the ordinary search
  with that filter, each on the snapshot it already holds.

Because both the graph side (scan filtering) and the vector side (bitmap
intersection) derive from one rule set, authorization cannot diverge
between the two — exactly the unified-governance claim.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..errors import ReproError
from ..graph.txn import Snapshot
from ..graph.vertex_set import VertexSet
from ..index.bitmap import Bitmap
from .search import SegmentMasks, segment_bitmaps

__all__ = ["AccessController", "AuthorizationError", "Role"]

#: Row predicate deciding visibility of one vertex for a role.
RowPredicate = Callable[[dict[str, Any]], bool]


class AuthorizationError(ReproError):
    """The role does not permit the attempted access."""


class Role:
    """A named set of per-vertex-type access rules.

    ``rules`` maps vertex type -> ``True`` (full access), ``False`` (no
    access), or a row predicate.  Types absent from the map fall back to
    ``default`` (deny, unless constructed with ``default_allow=True``).
    """

    def __init__(
        self,
        name: str,
        rules: Mapping[str, bool | RowPredicate] | None = None,
        default_allow: bool = False,
    ):
        self.name = name
        self.rules: dict[str, bool | RowPredicate] = dict(rules or {})
        self.default_allow = default_allow

    def can_access_type(self, vertex_type: str) -> bool:
        rule = self.rules.get(vertex_type, self.default_allow)
        return rule is not False

    def allows(self, vertex_type: str, row: dict[str, Any]) -> bool:
        rule = self.rules.get(vertex_type, self.default_allow)
        if rule is True:
            return True
        if rule is False:
            return False
        return bool(rule(row))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Role({self.name!r}, types={sorted(self.rules)})"


class AccessController:
    """Registry of roles + the authorization-bitmap machinery."""

    def __init__(self, db):
        self.db = db
        self._roles: dict[str, Role] = {}
        # Admin sees everything; always present.
        self._roles["admin"] = Role("admin", default_allow=True)

    # ------------------------------------------------------------- registry
    def create_role(
        self,
        name: str,
        rules: Mapping[str, bool | RowPredicate] | None = None,
        default_allow: bool = False,
    ) -> Role:
        if name in self._roles:
            raise ReproError(f"role '{name}' already exists")
        role = Role(name, rules, default_allow)
        self._roles[name] = role
        return role

    def role(self, name: str) -> Role:
        try:
            return self._roles[name]
        except KeyError:
            raise AuthorizationError(f"unknown role '{name}'") from None

    # -------------------------------------------------------------- bitmaps
    def authorization_bitmaps(
        self, role: Role | str, snapshot: Snapshot, vertex_type: str
    ) -> list[Bitmap]:
        """Per-segment masks of the vertices this role may see.

        This is the "unauthorized vectors are invalid" bitmap of Sec. 5.1;
        the caller intersects it with any query filter before the vector
        search, so one index call returns only authorized results.
        """
        if isinstance(role, str):
            role = self.role(role)
        if role.rules.get(vertex_type, role.default_allow) is True:
            # Full access: wrap the existing status structure, no new bitmap
            # (the Sec. 5.1 reuse optimization applies to authorization too).
            masks = snapshot.valid_bitmaps(vertex_type)
        else:
            # The graph-side view, as bits: one rule set, one scan.
            visible = self.visible_vertices(role, snapshot, vertex_type)
            masks = snapshot.bitmap_from_vids(vertex_type, (vid for _, vid in visible))
        return [Bitmap.wrap(mask) for mask in masks]

    # ------------------------------------------------------------ filtering
    def visible_vertices(
        self, role: Role | str, snapshot: Snapshot, vertex_type: str
    ) -> VertexSet:
        """Graph-side view under the same rules (unified governance)."""
        if isinstance(role, str):
            role = self.role(role)
        out = VertexSet(name=f"visible:{vertex_type}")
        if not role.can_access_type(vertex_type):
            return out
        for vid, row in snapshot.scan(vertex_type):
            if role.allows(vertex_type, row):
                out.add(vertex_type, vid)
        return out

    # -------------------------------------------------------------- search
    def search_filter(
        self,
        role: Role | str,
        snapshot: Snapshot,
        vector_attributes: list[str],
        filter: VertexSet | SegmentMasks | None = None,
    ) -> VertexSet | SegmentMasks | None:
        """The pre-filter of a search run as ``role``: role masks ``&`` ``filter``.

        A vertex type the role cannot read, or ``filter`` has no candidate
        of, is left out (= no candidate).  A role with no rule to apply gets
        ``filter`` back, so ``admin`` searches exactly what anyone does.
        """
        if isinstance(role, str):
            role = self.role(role)
        if role.default_allow and not role.rules:
            return filter
        masks: dict[str, list[Bitmap]] = {}
        for qualified in vector_attributes:
            vertex_type, _ = self.db.schema.embedding_attribute(qualified)
            if vertex_type in masks or not role.can_access_type(vertex_type):
                continue
            allowed = self.authorization_bitmaps(role, snapshot, vertex_type)
            if filter is not None:
                user = segment_bitmaps(filter, snapshot, vertex_type)
                if user is None:
                    continue
                allowed = [a.intersect(u) for a, u in zip(allowed, user)]
            masks[vertex_type] = allowed
        return masks

    def authorized_search(
        self,
        role: Role | str,
        vector_attributes: list[str],
        query_vector,
        k: int,
        filter: VertexSet | None = None,
        ef: int | None = None,
    ) -> VertexSet:
        """VectorSearch() that can only return authorized vertices."""
        if isinstance(role, str):
            role = self.role(role)
        with self.db.snapshot() as snapshot:
            masks = self.search_filter(role, snapshot, vector_attributes, filter)
            out = self.db.vector_search(
                vector_attributes, query_vector, k, filter=masks, ef=ef, snapshot=snapshot
            )
        out.name = f"TopK[{role.name}]"
        return out
