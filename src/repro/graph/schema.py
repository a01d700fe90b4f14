"""Property-graph schema and catalog.

Mirrors TigerGraph's DDL surface as used in the paper:

- ``CREATE VERTEX Post (id INT PRIMARY KEY, author STRING, content STRING)``
- ``CREATE DIRECTED EDGE knows (FROM Person, TO Person)``
- ``ALTER VERTEX Post ADD EMBEDDING ATTRIBUTE content_emb (DIMENSION=...,
  MODEL=..., INDEX=..., DATATYPE=..., METRIC=...)``
- ``CREATE EMBEDDING SPACE ... `` / ``ADD EMBEDDING ATTRIBUTE ... IN
  EMBEDDING SPACE ...``

The schema is a pure catalog: storage is handled by
:class:`repro.graph.storage.GraphStore`, which consults the schema for
attribute layouts and embedding metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..core.embedding import EmbeddingSpace, EmbeddingType
from ..errors import SchemaError, UnknownTypeError
from ..types import AttrType, DataType, IndexType, Metric

__all__ = ["Attribute", "EdgeType", "GraphSchema", "VertexType"]

_DEFAULTS = {
    AttrType.INT: 0,
    AttrType.UINT: 0,
    AttrType.FLOAT: 0.0,
    AttrType.DOUBLE: 0.0,
    AttrType.BOOL: False,
    AttrType.STRING: "",
    AttrType.DATETIME: 0,
    AttrType.LIST_FLOAT: (),
    AttrType.LIST_INT: (),
}


@dataclass(frozen=True)
class Attribute:
    """An ordinary (non-embedding) vertex or edge attribute."""

    name: str
    attr_type: AttrType
    primary_key: bool = False

    @property
    def default(self):
        return _DEFAULTS[self.attr_type]


class VertexType:
    """A vertex type: named attributes, one primary key, embedding attributes."""

    def __init__(self, name: str, attributes: Iterable[Attribute]):
        self.name = name
        self.attributes: dict[str, Attribute] = {}
        self.primary_key: str | None = None
        for attr in attributes:
            if attr.name in self.attributes:
                raise SchemaError(f"duplicate attribute '{attr.name}' on vertex '{name}'")
            self.attributes[attr.name] = attr
            if attr.primary_key:
                if self.primary_key is not None:
                    raise SchemaError(f"vertex '{name}' declares multiple primary keys")
                self.primary_key = attr.name
        if self.primary_key is None:
            raise SchemaError(f"vertex '{name}' must declare a PRIMARY KEY attribute")
        self.embeddings: dict[str, EmbeddingType] = {}

    def add_embedding(self, embedding: EmbeddingType) -> None:
        if embedding.name in self.attributes or embedding.name in self.embeddings:
            raise SchemaError(
                f"vertex '{self.name}' already has an attribute named '{embedding.name}'"
            )
        self.embeddings[embedding.name] = embedding

    def attribute(self, name: str) -> Attribute:
        try:
            return self.attributes[name]
        except KeyError:
            raise UnknownTypeError(
                f"vertex '{self.name}' has no attribute '{name}'"
            ) from None

    def embedding(self, name: str) -> EmbeddingType:
        try:
            return self.embeddings[name]
        except KeyError:
            raise UnknownTypeError(
                f"vertex '{self.name}' has no embedding attribute '{name}'"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VertexType({self.name}, attrs={list(self.attributes)}, emb={list(self.embeddings)})"


class EdgeType:
    """An edge type with fixed endpoint vertex types.

    TigerGraph supports both directed and undirected edges; undirected edges
    are stored as two directed half-edges by the storage layer.
    """

    def __init__(
        self,
        name: str,
        from_type: str,
        to_type: str,
        directed: bool = True,
        attributes: Iterable[Attribute] = (),
    ):
        self.name = name
        self.from_type = from_type
        self.to_type = to_type
        self.directed = directed
        self.attributes: dict[str, Attribute] = {}
        for attr in attributes:
            if attr.primary_key:
                raise SchemaError(f"edge '{name}': edges cannot declare primary keys")
            if attr.name in self.attributes:
                raise SchemaError(f"duplicate attribute '{attr.name}' on edge '{name}'")
            self.attributes[attr.name] = attr

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        arrow = "->" if self.directed else "--"
        return f"EdgeType({self.from_type}{arrow}{self.to_type}:{self.name})"


class GraphSchema:
    """The catalog: vertex types, edge types, and embedding spaces.

    ``version`` counts the DDL statements applied: each method below that
    changes the catalog bumps it once the change is in place, so a result
    derived from the catalog (``core/search.py::resolve_search``'s memo)
    can key on it and is never read back after a change.
    """

    def __init__(self, name: str = "g"):
        self.name = name
        self.vertex_types: dict[str, VertexType] = {}
        self.edge_types: dict[str, EdgeType] = {}
        self.embedding_spaces: dict[str, EmbeddingSpace] = {}
        self.version = 0

    # ------------------------------------------------------------------ DDL
    def create_vertex_type(self, name: str, attributes: Iterable[Attribute]) -> VertexType:
        if name in self.vertex_types:
            raise SchemaError(f"vertex type '{name}' already exists")
        vtype = VertexType(name, attributes)
        self.vertex_types[name] = vtype
        self.version += 1
        return vtype

    def create_edge_type(
        self,
        name: str,
        from_type: str,
        to_type: str,
        directed: bool = True,
        attributes: Iterable[Attribute] = (),
    ) -> EdgeType:
        if name in self.edge_types:
            raise SchemaError(f"edge type '{name}' already exists")
        for endpoint in (from_type, to_type):
            if endpoint not in self.vertex_types:
                raise UnknownTypeError(f"edge '{name}' references unknown vertex type '{endpoint}'")
        etype = EdgeType(name, from_type, to_type, directed, attributes)
        self.edge_types[name] = etype
        self.version += 1
        return etype

    def create_embedding_space(
        self,
        name: str,
        dimension: int,
        model: str = "unknown",
        index: IndexType = IndexType.HNSW,
        datatype: DataType = DataType.FLOAT,
        metric: Metric = Metric.COSINE,
        index_params: Mapping[str, int] | None = None,
    ) -> EmbeddingSpace:
        if name in self.embedding_spaces:
            raise SchemaError(f"embedding space '{name}' already exists")
        kwargs = {} if index_params is None else {"index_params": dict(index_params)}
        space = EmbeddingSpace(
            name=name,
            dimension=dimension,
            model=model,
            index=index,
            datatype=datatype,
            metric=metric,
            **kwargs,
        )
        self.embedding_spaces[name] = space
        self.version += 1
        return space

    def add_embedding_attribute(
        self,
        vertex_type: str,
        attr_name: str,
        dimension: int | None = None,
        model: str = "unknown",
        index: IndexType = IndexType.HNSW,
        datatype: DataType = DataType.FLOAT,
        metric: Metric = Metric.COSINE,
        index_params: Mapping[str, int] | None = None,
        space: str | None = None,
    ) -> EmbeddingType:
        """``ALTER VERTEX ... ADD EMBEDDING ATTRIBUTE`` (inline or via a space)."""
        vtype = self.vertex_type(vertex_type)
        if space is not None:
            try:
                emb_space = self.embedding_spaces[space]
            except KeyError:
                raise UnknownTypeError(f"unknown embedding space '{space}'") from None
            embedding = emb_space.make_attribute(attr_name)
        else:
            if dimension is None:
                raise SchemaError("embedding attribute requires DIMENSION (or an embedding space)")
            kwargs = {} if index_params is None else {"index_params": dict(index_params)}
            embedding = EmbeddingType(
                name=attr_name,
                dimension=dimension,
                model=model,
                index=index,
                datatype=datatype,
                metric=metric,
                **kwargs,
            )
        vtype.add_embedding(embedding)
        self.version += 1
        return embedding

    # -------------------------------------------------------------- lookups
    def vertex_type(self, name: str) -> VertexType:
        try:
            return self.vertex_types[name]
        except KeyError:
            raise UnknownTypeError(f"unknown vertex type '{name}'") from None

    def edge_type(self, name: str) -> EdgeType:
        try:
            return self.edge_types[name]
        except KeyError:
            raise UnknownTypeError(f"unknown edge type '{name}'") from None

    def has_vertex_type(self, name: str) -> bool:
        return name in self.vertex_types

    def embedding_attribute(self, qualified: str) -> tuple[str, EmbeddingType]:
        """Resolve ``"Type.attr"`` to ``(vertex_type_name, EmbeddingType)``."""
        if "." not in qualified:
            raise UnknownTypeError(
                f"embedding attribute reference '{qualified}' must be 'VertexType.attr'"
            )
        type_name, _, attr = qualified.partition(".")
        return type_name, self.vertex_type(type_name).embedding(attr)
