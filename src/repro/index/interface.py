"""The generic vector-index interface (paper Sec. 4.4).

TigerVector integrates vector indexes behind four generic functions:
``GetEmbedding``, ``TopKSearch``, ``RangeSearch``, and ``UpdateItems``;
implementing these is all a new index needs.  We mirror that contract in
:class:`VectorIndex` (snake_case), add deletion and statistics reporting
(the paper enhances its indexes to report stats), and provide
:func:`create_index` as the factory the embedding service uses.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import VectorSearchError
from ..types import IndexType, Metric

__all__ = ["IndexStats", "SearchResult", "VectorIndex", "admitted", "create_index"]


@dataclass
class SearchResult:
    """Top-k (or range) search output: parallel id/distance arrays, best first."""

    ids: np.ndarray  # int64 external ids
    distances: np.ndarray  # float32

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.distances = np.asarray(self.distances, dtype=np.float32)

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def __iter__(self):
        return iter(zip(self.ids.tolist(), self.distances.tolist()))

    @classmethod
    def empty(cls) -> "SearchResult":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))


def admitted(filter_fn, ids: np.ndarray) -> np.ndarray:
    """Which of ``ids`` pass ``filter_fn``, as one boolean array.

    ``filter_fn`` is either form :meth:`VectorIndex.topk_search` accepts: a
    boolean array indexed by external id (one gather) or a callable on one
    id (one Python call per id).
    """
    if callable(filter_fn):
        return np.fromiter((filter_fn(int(i)) for i in ids), dtype=bool, count=len(ids))
    return np.asarray(filter_fn, dtype=bool)[ids]


@dataclass
class IndexStats:
    """Counters the index reports for performance measurement (Sec. 4.4).

    ``num_hops`` counts expansion steps: greedy-descent moves on the upper
    layers plus layer-0 *rounds* of HNSW, each of which expands several
    candidates at once (``repro.index.hnsw``).
    """

    num_vectors: int = 0
    num_deleted: int = 0
    num_searches: int = 0
    num_distance_computations: int = 0
    num_hops: int = 0
    num_inserts: int = 0
    num_updates: int = 0
    build_seconds: float = 0.0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


class VectorIndex:
    """Abstract base: the four generic functions plus deletion and stats."""

    metric: Metric
    dim: int

    # -- GetEmbedding ---------------------------------------------------
    def get_embedding(self, external_id: int) -> np.ndarray:
        raise NotImplementedError

    def __contains__(self, external_id: int) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    # -- TopKSearch ------------------------------------------------------
    def topk_search(
        self,
        query: np.ndarray,
        k: int,
        ef: int | None = None,
        filter_fn: np.ndarray | Callable[[int], bool] | None = None,
    ) -> SearchResult:
        """Return up to ``k`` valid nearest neighbours, best first.

        ``filter_fn`` excludes ids from results while still allowing graph
        traversal through them, exactly like the bitmap filter TigerVector
        passes to HNSW.  It is either a boolean array indexed by external id
        (``True`` = may be returned; it must cover every id the index holds)
        — the form the embedding service passes, read with one gather — or a
        callable ``filter_fn(external_id) -> bool``, invoked at most once per
        stored row the search reaches.
        """
        raise NotImplementedError

    # -- RangeSearch -----------------------------------------------------
    def range_search(
        self,
        query: np.ndarray,
        threshold: float,
        ef: int | None = None,
        filter_fn: np.ndarray | Callable[[int], bool] | None = None,
    ) -> SearchResult:
        raise NotImplementedError

    # -- UpdateItems -----------------------------------------------------
    def update_items(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        """Insert-or-replace vectors; the incremental vacuum path (Sec. 4.3)."""
        raise NotImplementedError

    def delete_items(self, ids: Sequence[int]) -> None:
        raise NotImplementedError

    def clone(self) -> "VectorIndex":
        """An independent copy, which the index merge writes
        (``EmbeddingSegment.build_next_snapshot``).

        A pickle round-trip here; an index with a cheaper state copy
        overrides it.
        """
        return pickle.loads(pickle.dumps(self))

    # -- stats -----------------------------------------------------------
    @property
    def stats(self) -> IndexStats:
        raise NotImplementedError


def create_index(
    index_type: IndexType,
    dim: int,
    metric: Metric,
    index_params: dict | None = None,
) -> VectorIndex:
    """Factory used by embedding segments to build their per-segment index."""
    from .bruteforce import BruteForceIndex
    from .hnsw import HNSWIndex
    from .ivf import IVFFlatIndex
    from .sq8 import SQ8FlatIndex

    params = dict(index_params or {})
    if index_type is IndexType.HNSW:
        return HNSWIndex(
            dim=dim,
            metric=metric,
            M=params.get("M", 16),
            ef_construction=params.get("ef_construction", 128),
            seed=params.get("seed", 100),
        )
    if index_type is IndexType.FLAT:
        return BruteForceIndex(dim=dim, metric=metric)
    if index_type is IndexType.IVF_FLAT:
        return IVFFlatIndex(
            dim=dim,
            metric=metric,
            nlist=params.get("nlist", 64),
            nprobe=params.get("nprobe", 8),
            seed=params.get("seed", 17),
        )
    if index_type is IndexType.SQ8:
        return SQ8FlatIndex(dim=dim, metric=metric)
    if index_type is IndexType.IVF_PQ:
        from .pq import IVFPQIndex

        return IVFPQIndex(
            dim=dim,
            metric=metric,
            nlist=params.get("nlist", 64),
            nprobe=params.get("nprobe", 8),
            m=params.get("m", min(8, dim)),
            train_iterations=params.get("train_iterations", 10),
            seed=params.get("seed", 17),
            refine=params.get("refine", True),
            rerank_factor=params.get("rerank_factor", 4),
        )
    raise VectorSearchError(f"unsupported index type: {index_type}")
