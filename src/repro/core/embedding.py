"""Embedding attribute type and embedding space (paper Sec. 4.1).

TigerVector manages vectors through a dedicated ``embedding`` data type
rather than ``LIST<FLOAT>``.  The type carries the metadata that the engine
needs to validate and plan vector operations:

- ``dimension`` — vector dimensionality,
- ``model`` — the ML model that produced the embedding (free-form string),
- ``index`` — the vector index algorithm (HNSW or FLAT),
- ``datatype`` — element type (FLOAT / DOUBLE),
- ``metric`` — similarity metric (L2 / IP / COSINE).

An :class:`EmbeddingSpace` names one such metadata bundle so that several
vertex types can share a single definition (Figure 2 in the paper).

Compatibility (static analysis)
-------------------------------
Multi-attribute vector search (``VectorSearch({Post.emb, Comment.emb}, ...)``)
is only allowed when the attributes are *compatible*: every metadata field
except the index type must be identical.  :func:`check_compatible` implements
that check and raises :class:`~repro.errors.EmbeddingCompatibilityError`
otherwise; the GSQL semantic analyzer calls it at compile time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..errors import (
    DimensionMismatchError,
    EmbeddingCompatibilityError,
    SchemaError,
    VectorSearchError,
)
from ..types import DataType, IndexType, Metric

__all__ = [
    "DEFAULT_HNSW_PARAMS",
    "EmbeddingSpace",
    "EmbeddingType",
    "check_compatible",
    "require_finite",
]

#: Default HNSW construction parameters (M=16, efConstruction=128), matching
#: the configuration the paper uses across all compared systems (Sec. 6.1).
DEFAULT_HNSW_PARAMS: Mapping[str, int] = {"M": 16, "ef_construction": 128}


def require_finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` unchanged, or :class:`~repro.errors.VectorSearchError` if
    any entry is NaN or infinite.

    Every distance to such a vector is NaN or infinite, which no ranking
    orders: a search would return a wrong answer without an error, and an
    index build would link the row at random.  Every door a vector enters
    by — a write, a bulk load, a query — calls this.
    """
    if not np.isfinite(values).all():
        raise VectorSearchError(f"{what} has a NaN or infinite entry")
    return values


@dataclass(frozen=True)
class EmbeddingType:
    """Metadata describing one embedding attribute on a vertex type.

    Instances are immutable; the catalog hands out shared references.
    """

    name: str
    dimension: int
    model: str = "unknown"
    index: IndexType = IndexType.HNSW
    datatype: DataType = DataType.FLOAT
    metric: Metric = Metric.COSINE
    index_params: Mapping[str, int] = field(default_factory=lambda: dict(DEFAULT_HNSW_PARAMS))
    space: str | None = None  # name of the embedding space it was created from

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise SchemaError(f"embedding '{self.name}': dimension must be positive")
        if not self.name:
            raise SchemaError("embedding attribute name must be non-empty")

    def validate_vector(self, vector: np.ndarray) -> np.ndarray:
        """Coerce ``vector`` to this type's dtype, checking dimensionality and
        that every entry is finite."""
        arr = np.asarray(vector, dtype=self.datatype.numpy_dtype).reshape(-1)
        if arr.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"embedding '{self.name}' expects dimension {self.dimension}, "
                f"got {arr.shape[0]}"
            )
        return require_finite(arr, f"embedding '{self.name}' vector")

    def is_compatible_with(self, other: "EmbeddingType") -> bool:
        """True when a single search may span both attributes.

        Per Sec. 4.1: *"If all aspects of the vector metadata, except for the
        index type, are identical, the query is allowed."*
        """
        return (
            self.dimension == other.dimension
            and self.model == other.model
            and self.datatype == other.datatype
            and self.metric == other.metric
        )


@dataclass(frozen=True)
class EmbeddingSpace:
    """A named, reusable embedding metadata bundle (``CREATE EMBEDDING SPACE``)."""

    name: str
    dimension: int
    model: str = "unknown"
    index: IndexType = IndexType.HNSW
    datatype: DataType = DataType.FLOAT
    metric: Metric = Metric.COSINE
    index_params: Mapping[str, int] = field(default_factory=lambda: dict(DEFAULT_HNSW_PARAMS))

    def make_attribute(self, attr_name: str) -> EmbeddingType:
        """Instantiate an embedding attribute belonging to this space."""
        return EmbeddingType(
            name=attr_name,
            dimension=self.dimension,
            model=self.model,
            index=self.index,
            datatype=self.datatype,
            metric=self.metric,
            index_params=dict(self.index_params),
            space=self.name,
        )


def check_compatible(attrs: Iterable[tuple[str, EmbeddingType]]) -> EmbeddingType:
    """Validate that all ``(qualified_name, embedding_type)`` pairs may be searched together.

    Returns the first embedding type (the representative for planning
    purposes) or raises :class:`EmbeddingCompatibilityError` naming the
    offending pair.  This is the compile-time static analysis from Sec. 4.1.
    """
    pairs = list(attrs)
    if not pairs:
        raise EmbeddingCompatibilityError("vector search requires at least one embedding attribute")
    first_name, first = pairs[0]
    for name, etype in pairs[1:]:
        if not first.is_compatible_with(etype):
            raise EmbeddingCompatibilityError(
                f"embedding attributes '{first_name}' and '{name}' are not "
                f"compatible: ({first.dimension}d, {first.model}, "
                f"{first.datatype.value}, {first.metric.value}) vs "
                f"({etype.dimension}d, {etype.model}, {etype.datatype.value}, "
                f"{etype.metric.value})"
            )
    return first
