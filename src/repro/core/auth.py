"""Role-based access control over graph and vector data (paper Sec. 1, 5.1).

One of the paper's arguments for a *unified* system is data governance: "a
single set of access controls (e.g., role-based access control) for both
vector data and graph data".  And the vector-search filter bitmap
explicitly marks "all deleted and **unauthorized** vectors as invalid"
(Sec. 5.1).  This module provides that layer:

- a :class:`Role` grants access per vertex type — everything, nothing, or a
  row predicate (``lambda attrs: ...``);
- an :class:`AccessController` registers roles and materializes
  *authorization bitmaps* (one per segment) that the vector search
  intersects with its validity masks, so unauthorized vectors can never
  surface in results — the same mechanism that hides deleted rows;
- :meth:`AccessController.authorized_search` is the drop-in authorized
  variant of ``VectorSearch()``.

Because both the graph side (scan filtering) and the vector side (bitmap
intersection) derive from one rule set, authorization cannot diverge
between the two — exactly the unified-governance claim.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from ..errors import ReproError
from ..graph.txn import Snapshot
from ..graph.vertex_set import VertexSet
from ..index.bitmap import Bitmap

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
        capacity = snapshot._store.segment_size
        num_segments = snapshot.num_segments(vertex_type)
        if not role.can_access_type(vertex_type):
            return [Bitmap.empty(capacity) for _ in range(num_segments)]
        rule = role.rules.get(vertex_type, role.default_allow)
        if rule is True:
            # Full access: wrap the existing status structure, no new bitmap
            # (the Sec. 5.1 reuse optimization applies to authorization too).
            return [Bitmap.wrap(mask) for mask in snapshot.valid_bitmaps(vertex_type)]
        masks = [np.zeros(capacity, dtype=bool) for _ in range(num_segments)]
        for vid, row in snapshot.scan(vertex_type):
            if role.allows(vertex_type, row):
                masks[vid // capacity][vid % capacity] = True
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
    def authorized_search(
        self,
        role: Role | str,
        vector_attributes: list[str],
        query_vector,
        k: int,
        filter: VertexSet | None = None,
        ef: int | None = None,
    ) -> VertexSet:
        """VectorSearch() that can only return authorized vertices.

        The role's authorization bitmap intersects the query's own filter
        (if any); types the role cannot read are skipped entirely.
        """
        from .action import EmbeddingAction
        from .search import _resolve_attributes, _validate_query
        from ..errors import VectorSearchError

        if isinstance(role, str):
            role = self.role(role)
        if k <= 0:
            raise VectorSearchError("k must be positive")
        resolved, representative = _resolve_attributes(
            self.db.service, vector_attributes
        )
        query = _validate_query(query_vector, representative)

        merged: list[tuple[float, str, int]] = []
        with self.db.snapshot() as snapshot:
            for qualified, vertex_type, _ in resolved:
                if not role.can_access_type(vertex_type):
                    continue
                auth = self.authorization_bitmaps(role, snapshot, vertex_type)
                if filter is not None:
                    vids = filter.vids_of_type(vertex_type)
                    user = [
                        Bitmap.wrap(m)
                        for m in snapshot.bitmap_from_vids(vertex_type, vids)
                    ]
                    while len(user) < len(auth):
                        user.append(Bitmap.empty(snapshot._store.segment_size))
                    bitmaps = [a.intersect(u) for a, u in zip(auth, user)]
                else:
                    bitmaps = auth
                store = self.db.service.store(
                    vertex_type, qualified.split(".", 1)[1]
                )
                while len(bitmaps) < store.num_segments:
                    bitmaps.append(Bitmap.empty(store.segment_size))
                action = EmbeddingAction(store)
                result = action.topk(
                    query, k, snapshot_tid=snapshot.tid, ef=ef, bitmaps=bitmaps
                )
                merged.extend(
                    (float(d), vertex_type, int(v)) for v, d in result
                )
        merged.sort(key=lambda e: e[0])
        out = VertexSet(name=f"TopK[{role.name}]")
        for _, vertex_type, vid in merged[:k]:
            out.add(vertex_type, vid)
        return out
