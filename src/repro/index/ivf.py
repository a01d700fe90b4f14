"""IVF-Flat: an inverted-file index behind the same four generic functions.

The paper notes that because TigerVector integrates indexes behind
GetEmbedding / TopKSearch / RangeSearch / UpdateItems, *"other vector
indexes (such as quantization-based indexes) can be easily integrated"*
(Sec. 4.4).  This module makes that claim concrete: a k-means coarse
quantizer partitions vectors into ``nlist`` inverted lists; queries scan the
``nprobe`` nearest lists with exact distances.

IVF trades recall for speed differently than HNSW (probe count instead of
beam width), which the ablation bench compares.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import VectorSearchError
from ..types import Metric
from .interface import IndexStats, SearchResult, VectorIndex, admitted
from .kernels import DistanceKernel

__all__ = ["IVFFlatIndex", "kmeans"]


def kmeans(
    vectors: np.ndarray,
    k: int,
    iterations: int = 10,
    seed: int = 17,
) -> np.ndarray:
    """Plain Lloyd's k-means (numpy); returns (k, dim) centroids.

    Empty clusters are re-seeded from random points, which is what keeps the
    coarse quantizer balanced on clustered data.
    """
    rng = np.random.default_rng(seed)
    n = vectors.shape[0]
    if n == 0:
        raise VectorSearchError("cannot run k-means on an empty set")
    k = min(k, n)
    centroids = vectors[rng.choice(n, size=k, replace=False)].astype(np.float32)
    for _ in range(iterations):
        # assign: one fully vectorized point-vs-centroid matrix through the
        # shared kernel (L2 regardless of index metric — Lloyd's update
        # minimizes squared Euclidean distortion).
        kernel = DistanceKernel.for_matrix(centroids, Metric.L2)
        assign = np.argmin(kernel.cross(vectors), axis=1)
        # update
        for c in range(k):
            members = vectors[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                centroids[c] = vectors[rng.integers(0, n)]
    return centroids


class IVFFlatIndex(VectorIndex):
    """Inverted-file index with exact (flat) in-list distances."""

    def __init__(
        self,
        dim: int,
        metric: Metric = Metric.L2,
        nlist: int = 64,
        nprobe: int = 8,
        train_iterations: int = 10,
        seed: int = 17,
    ):
        if dim <= 0:
            raise VectorSearchError("dim must be positive")
        if nlist <= 0 or nprobe <= 0:
            raise VectorSearchError("nlist and nprobe must be positive")
        self.dim = dim
        self.metric = metric
        self.nlist = nlist
        self.nprobe = nprobe
        self.train_iterations = train_iterations
        self.seed = seed
        self._centroids: np.ndarray | None = None
        self._lists: list[list[int]] = []  # centroid -> row indexes
        self._vectors = np.zeros((0, dim), dtype=np.float32)
        self._ids = np.zeros(0, dtype=np.int64)
        self._id_to_row: dict[int, int] = {}
        self._deleted: set[int] = set()  # row indexes
        self._stats = IndexStats()
        self._kernel = DistanceKernel(metric, self._vectors, precompute=False)
        self._centroid_kernel: DistanceKernel | None = None  # L2 over centroids

    # ------------------------------------------------------------- training
    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    def _train(self, vectors: np.ndarray) -> None:
        nlist = min(self.nlist, max(1, len(vectors)))
        self._centroids = kmeans(
            vectors, nlist, iterations=self.train_iterations, seed=self.seed
        )
        self._lists = [[] for _ in range(len(self._centroids))]
        # Coarse quantization is always L2 (nearest centroid), whatever the
        # in-list metric.
        self._centroid_kernel = DistanceKernel.for_matrix(self._centroids, Metric.L2)

    def _assign(self, vectors: np.ndarray) -> np.ndarray:
        return np.argmin(self._centroid_kernel.cross(vectors), axis=1)

    # ---------------------------------------------------------- row format
    # What a stored row is (raw float32 here) sits behind these two hooks;
    # IVFPQIndex overrides them to keep PQ codes in the same lists.
    def _append_rows(self, vectors: np.ndarray) -> None:
        """Store a validated ``(n, dim)`` batch as rows ``len(_ids)`` onward."""
        start_row = len(self._ids)
        self._vectors = np.vstack([self._vectors, vectors])
        self._kernel.attach(self._vectors, copy_rows=start_row)
        if vectors.shape[0]:
            self._kernel.set_rows(slice(start_row, start_row + vectors.shape[0]), vectors)

    def _score(self, query: np.ndarray, rows: np.ndarray, k: int):
        """``(rows, distances)`` for the probed live rows (exact here)."""
        self._stats.num_distance_computations += rows.size
        return rows, self._kernel.distances(self._kernel.query(query), rows)

    # ------------------------------------------------------------- updates
    def update_items(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        if vectors.shape[1] != self.dim:
            raise VectorSearchError(f"expected dimension {self.dim}, got {vectors.shape[1]}")
        if len(ids) != vectors.shape[0]:
            raise VectorSearchError("ids and vectors length mismatch")
        if not self.is_trained:
            self._train(vectors)
        start_row = len(self._ids)
        self._append_rows(vectors)
        self._ids = np.concatenate([self._ids, np.asarray(ids, dtype=np.int64)])
        assignments = self._assign(vectors)
        for offset, (ext_id, centroid) in enumerate(zip(ids, assignments)):
            ext_id = int(ext_id)
            row = start_row + offset
            old = self._id_to_row.get(ext_id)
            if old is not None:
                self._deleted.add(old)
                self._stats.num_updates += 1
            else:
                self._stats.num_inserts += 1
            self._id_to_row[ext_id] = row
            self._lists[int(centroid)].append(row)
        self._stats.num_vectors = len(self._id_to_row)

    def delete_items(self, ids: Sequence[int]) -> None:
        for ext_id in ids:
            row = self._id_to_row.pop(int(ext_id), None)
            if row is not None:
                self._deleted.add(row)
                self._stats.num_deleted += 1
        self._stats.num_vectors = len(self._id_to_row)

    # --------------------------------------------------------------- reads
    def get_embedding(self, external_id: int) -> np.ndarray:
        row = self._id_to_row.get(int(external_id))
        if row is None:
            raise VectorSearchError(f"id {external_id} not in index")
        return self._vectors[row].copy()

    def __contains__(self, external_id: int) -> bool:
        return int(external_id) in self._id_to_row

    def __len__(self) -> int:
        return len(self._id_to_row)

    # -------------------------------------------------------------- search
    def _probe_rows(self, query: np.ndarray, nprobe: int) -> np.ndarray:
        self._stats.num_distance_computations += len(self._centroids)
        ck = self._centroid_kernel
        c_dists = ck.distances_prefix(ck.query(query), len(self._centroids))
        nprobe = min(nprobe, len(self._centroids))
        order = np.argpartition(c_dists, nprobe - 1)[:nprobe]
        rows = [r for c in order for r in self._lists[int(c)] if r not in self._deleted]
        return np.asarray(rows, dtype=np.int64)

    def topk_search(
        self,
        query: np.ndarray,
        k: int,
        ef: int | None = None,
        filter_fn: np.ndarray | Callable[[int], bool] | None = None,
    ) -> SearchResult:
        """Top-k over the probed lists; ``ef`` maps to nprobe here.

        The ef parameter slot carries the accuracy knob for whichever index
        is plugged in — for IVF that is the probe count.
        """
        if k <= 0:
            raise VectorSearchError("k must be positive")
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        if query.shape[0] != self.dim:
            raise VectorSearchError(f"expected dimension {self.dim}, got {query.shape[0]}")
        self._stats.num_searches += 1
        if not self.is_trained or not len(self._ids):
            return SearchResult.empty()
        rows = self._probe_rows(query, ef or self.nprobe)
        if rows.size == 0:
            return SearchResult.empty()
        rows, dists = self._score(query, rows, k)
        ids = self._ids[rows]
        if filter_fn is not None:
            keep = admitted(filter_fn, ids)
            ids, dists = ids[keep], dists[keep]
        if ids.size == 0:
            return SearchResult.empty()
        # One external id may appear twice (stale row after update); keep best.
        order = np.argsort(dists, kind="stable")
        seen: set[int] = set()
        out_ids, out_dists = [], []
        for i in order:
            ext = int(ids[i])
            if ext in seen:
                continue
            # stale rows: only the current mapping counts
            if self._id_to_row.get(ext) is None:
                continue
            seen.add(ext)
            out_ids.append(ext)
            out_dists.append(float(dists[i]))
            if len(out_ids) >= k:
                break
        return SearchResult(np.asarray(out_ids), np.asarray(out_dists, dtype=np.float32))

    def range_search(
        self,
        query: np.ndarray,
        threshold: float,
        ef: int | None = None,
        filter_fn: np.ndarray | Callable[[int], bool] | None = None,
    ) -> SearchResult:
        from .range_search import range_search_via_topk

        return range_search_via_topk(self, query, threshold, ef=ef, filter_fn=filter_fn)

    @property
    def stats(self) -> IndexStats:
        return self._stats
