"""FLAT (brute-force) index.

Serves three roles from the paper:

1. The fallback when a filter leaves too few valid points — scanning the
   valid vectors directly beats forcing HNSW to fight its way past an
   almost-all-invalid neighbourhood (Sec. 5.1).
2. The overlay search over unmerged vector deltas: queries combine index
   snapshot results with brute force over delta files (Sec. 4.3).
3. A recall oracle for tests and ground-truth generation.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import VectorSearchError
from ..types import Metric
from .interface import IndexStats, SearchResult, VectorIndex, admitted
from .kernels import DistanceKernel

__all__ = ["BruteForceIndex"]


class BruteForceIndex(VectorIndex):
    """Exact nearest-neighbour search over a dense id->vector table.

    The table — capacity doubling, in-place replace, swap-remove delete —
    and both searches are independent of what a stored row *is*.  The row
    format sits behind four hooks (:attr:`_ROW_DTYPE`, :meth:`_encode`,
    :meth:`_put`, :meth:`_bind`); :class:`~repro.index.sq8.SQ8FlatIndex`
    overrides them to keep uint8 codes in the same table.
    """

    #: dtype of a stored row (float32 vectors here).
    _ROW_DTYPE = np.float32

    def __init__(self, dim: int, metric: Metric = Metric.L2):
        if dim <= 0:
            raise VectorSearchError("dim must be positive")
        self.dim = dim
        self.metric = metric
        self._capacity = 16
        self._vectors = np.zeros((self._capacity, dim), dtype=self._ROW_DTYPE)
        self._ids = np.empty(0, dtype=np.int64)
        self._id_to_row: dict[int, int] = {}
        self._stats = IndexStats()
        self._kernel = None
        self._bind()

    # ---------------------------------------------------------- row format
    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        """Stored rows for a validated ``(n, dim)`` float32 batch."""
        return vectors

    def _put(self, row: int, value: np.ndarray) -> None:
        """Write one stored row and refresh the kernel's cache for it."""
        self._vectors[row] = value
        self._kernel.set_row(row, self._vectors[row])

    def _bind(self) -> None:
        """(Re)bind the scan kernel to the table: at construction and after
        every reallocation."""
        if self._kernel is None:
            self._kernel = DistanceKernel(self.metric, self._vectors, precompute=False)
        else:
            self._kernel.attach(self._vectors, copy_rows=len(self._ids))

    # ------------------------------------------------------------- storage
    def _grow(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        new_capacity = max(needed, self._capacity * 2)
        grown = np.zeros((new_capacity, self.dim), dtype=self._ROW_DTYPE)
        grown[: len(self._ids)] = self._vectors[: len(self._ids)]
        self._vectors = grown
        self._capacity = new_capacity
        self._bind()

    def update_items(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        if vectors.shape[1] != self.dim:
            raise VectorSearchError(
                f"expected dimension {self.dim}, got {vectors.shape[1]}"
            )
        if len(ids) != vectors.shape[0]:
            raise VectorSearchError("ids and vectors length mismatch")
        for ext_id, value in zip(ids, self._encode(vectors)):
            ext_id = int(ext_id)
            row = self._id_to_row.get(ext_id)
            if row is None:
                row = len(self._ids)
                self._grow(row + 1)
                self._ids = np.append(self._ids, np.int64(ext_id))
                self._id_to_row[ext_id] = row
                self._stats.num_inserts += 1
            else:
                self._stats.num_updates += 1
            self._put(row, value)
        self._stats.num_vectors = len(self._id_to_row)

    def delete_items(self, ids: Sequence[int]) -> None:
        """Swap-remove each id to keep the table dense."""
        for ext_id in ids:
            ext_id = int(ext_id)
            row = self._id_to_row.pop(ext_id, None)
            if row is None:
                continue
            last = len(self._ids) - 1
            if row != last:
                moved_id = int(self._ids[last])
                self._ids[row] = moved_id
                self._put(row, self._vectors[last])
                self._id_to_row[moved_id] = row
            self._ids = self._ids[:last]
            self._stats.num_deleted += 1
        self._stats.num_vectors = len(self._id_to_row)

    # --------------------------------------------------------------- reads
    def get_embedding(self, external_id: int) -> np.ndarray:
        try:
            row = self._id_to_row[int(external_id)]
        except KeyError:
            raise VectorSearchError(f"id {external_id} not in index") from None
        return self._vectors[row].copy()

    def __contains__(self, external_id: int) -> bool:
        return int(external_id) in self._id_to_row

    def __len__(self) -> int:
        return len(self._id_to_row)

    # -------------------------------------------------------------- search
    def _distances(self, query: np.ndarray) -> np.ndarray:
        n = len(self._ids)
        if n == 0:
            return np.empty(0, dtype=np.float32)
        self._stats.num_distance_computations += n
        ctx = self._kernel.query(query)
        return self._kernel.distances_prefix(ctx, n)

    def topk_search(
        self,
        query: np.ndarray,
        k: int,
        ef: int | None = None,
        filter_fn: np.ndarray | Callable[[int], bool] | None = None,
    ) -> SearchResult:
        if k <= 0:
            raise VectorSearchError("k must be positive")
        self._stats.num_searches += 1
        dists = self._distances(np.asarray(query, dtype=np.float32))
        if dists.size == 0:
            return SearchResult.empty()
        ids = self._ids
        if filter_fn is not None:
            keep = admitted(filter_fn, ids)
            ids = ids[keep]
            dists = dists[keep]
            if dists.size == 0:
                return SearchResult.empty()
        k = min(k, dists.size)
        part = np.argpartition(dists, k - 1)[:k]
        order = part[np.argsort(dists[part], kind="stable")]
        return SearchResult(ids[order], dists[order])

    def range_search(
        self,
        query: np.ndarray,
        threshold: float,
        ef: int | None = None,
        filter_fn: np.ndarray | Callable[[int], bool] | None = None,
    ) -> SearchResult:
        self._stats.num_searches += 1
        dists = self._distances(np.asarray(query, dtype=np.float32))
        if dists.size == 0:
            return SearchResult.empty()
        within = dists < threshold
        ids = self._ids[within]
        dists = dists[within]
        if filter_fn is not None and ids.size:
            keep = admitted(filter_fn, ids)
            ids = ids[keep]
            dists = dists[keep]
        order = np.argsort(dists, kind="stable")
        return SearchResult(ids[order], dists[order])

    @property
    def stats(self) -> IndexStats:
        return self._stats
