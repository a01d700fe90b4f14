"""Vertex set variables — GSQL's unit of query composition (paper Sec. 2.1).

A GSQL query is a sequence of SELECT blocks, each producing a *vertex set
variable* that later blocks can consume in their FROM clause.  TigerVector's
``VectorSearch()`` both accepts a vertex set (as a candidate filter) and
returns one (the top-k vertices), which is what lets vector search compose
with graph algorithms (queries Q2–Q4 in the paper).

Members are ``(vertex_type, vid)`` pairs, so one set can span several vertex
types (e.g. Posts and Comments together).
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["RankedVertexSet", "VertexSet"]


class VertexSet:
    """An immutable-ish set of typed vertex ids with set algebra.

    Supports the GSQL binary operators UNION, INTERSECT, and MINUS.
    """

    __slots__ = ("name", "_members")

    def __init__(self, members: Iterable[tuple[str, int]] = (), name: str = ""):
        self.name = name
        self._members: set[tuple[str, int]] = set(members)

    # ------------------------------------------------------------- basics
    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self._members)

    def __contains__(self, member: tuple[str, int]) -> bool:
        return member in self._members

    def __bool__(self) -> bool:
        return bool(self._members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self._members == other._members

    def __hash__(self):  # pragma: no cover - sets are not hashable by content
        return id(self)

    def add(self, vertex_type: str, vid: int) -> None:
        self._members.add((vertex_type, vid))

    def members(self) -> set[tuple[str, int]]:
        return set(self._members)

    # -------------------------------------------------------------- typed
    def vertex_types(self) -> set[str]:
        return {vertex_type for vertex_type, _ in self._members}

    def vids_of_type(self, vertex_type: str) -> set[int]:
        return {vid for vtype, vid in self._members if vtype == vertex_type}

    # ------------------------------------------------------------- algebra
    def union(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self._members | other._members)

    def intersect(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self._members & other._members)

    def minus(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self._members - other._members)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return self.union(other)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return self.intersect(other)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return self.minus(other)

    def __repr__(self) -> str:
        label = self.name or "VertexSet"
        return f"{label}({len(self._members)} vertices)"


class RankedVertexSet(VertexSet):
    """A vertex set that remembers result order and distances.

    ``ORDER BY VECTOR_DIST ... LIMIT k`` produces one of these: it behaves as
    a normal vertex set for composition, while ``ranking`` preserves the
    best-first ``((vertex_type, vid), distance)`` order for output.
    """

    __slots__ = ("ranking",)

    def __init__(
        self,
        ranking: list[tuple[tuple[str, int], float]] = (),
        name: str = "",
    ):
        super().__init__((member for member, _ in ranking), name=name)
        self.ranking = list(ranking)

    def distances(self) -> dict[tuple[str, int], float]:
        return dict(self.ranking)

    def __repr__(self) -> str:
        label = self.name or "RankedVertexSet"
        return f"{label}({len(self)} vertices, ranked)"
