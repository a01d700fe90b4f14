"""EmbeddingAction: segment-parallel vector search with global merge (Sec. 5.1).

TigerVector executes a top-k query by searching each embedding segment's
index independently (thread pool), then merging the local top-k lists into
the global answer.  The plan notation from the paper::

    EmbeddingAction[Top k, {s.content_emb}, query_vector]

A per-segment pre-filter :class:`~repro.index.bitmap.Bitmap` may be supplied
(from a WHERE predicate or a graph pattern); segments whose valid count falls
below the store's threshold flip to brute force automatically inside
:meth:`EmbeddingStore.search_segment`.

The action reports which segments were touched and how many used brute
force — the statistics behind the IC5-vs-IC11 discussion in Sec. 6.5.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from ..errors import VectorSearchError
from ..graph.mpp import MPPExecutor
from ..index.bitmap import Bitmap
from ..index.interface import SearchResult
from ..index.kernels import MultiQueryContext
from ..index.range_search import grow_topk_to_radius
from .service import EmbeddingStore, SegmentSearchOutput

__all__ = ["ActionStats", "EmbeddingAction"]

_SHARED_EXECUTOR = MPPExecutor()


@dataclass
class ActionStats:
    """Execution statistics for one EmbeddingAction invocation."""

    segments_touched: int = 0
    segments_bruteforce: int = 0
    candidates: int = 0
    elapsed_seconds: float = 0.0

    def __iadd__(self, other: "ActionStats") -> "ActionStats":
        self.segments_touched += other.segments_touched
        self.segments_bruteforce += other.segments_bruteforce
        self.candidates += other.candidates
        self.elapsed_seconds += other.elapsed_seconds
        return self


class EmbeddingAction:
    """One vector-search operator instance over a single embedding store."""

    def __init__(
        self,
        store: EmbeddingStore,
        executor: MPPExecutor | None = None,
        parallel: bool = True,
    ):
        self.store = store
        self.executor = executor or _SHARED_EXECUTOR
        self.parallel = parallel
        self.last_stats = ActionStats()

    # ------------------------------------------------------------- helpers
    def _segment_bitmaps(
        self, bitmaps: list[Bitmap] | None, num_segments: int
    ) -> list[Bitmap | None]:
        if bitmaps is None:
            return [None] * num_segments
        if len(bitmaps) < num_segments:
            bitmaps = list(bitmaps) + [
                Bitmap.empty(self.store.segment_size)
                for _ in range(num_segments - len(bitmaps))
            ]
        return list(bitmaps[:num_segments])

    def _scan_work(self, seg_no: int, bitmap: Bitmap | None) -> int:
        """Multiply-adds of one segment's step if it is a NumPy scan, else 0.

        Mirrors the flip inside :meth:`EmbeddingStore.search_segment`: a cold
        segment is ADC-scanned and a pre-filter below ``bf_threshold`` is
        brute-forced — kernels that release the GIL — while anything else is
        an HNSW traversal, which holds it.  (An unfiltered hot segment with
        fewer live rows than the threshold is also scanned, but that scan is
        too small to be worth counting.)
        """
        store = self.store
        segment = store.segment(seg_no)
        if segment.current_snapshot().pq is None and (
            bitmap is None or bitmap.count() >= store.bf_threshold
        ):
            return 0
        rows = segment.live_count() if bitmap is None else bitmap.count()
        return rows * store.embedding.dimension

    def _run_segments(self, fn, seg_nos: list[int], work: list[int]) -> list:
        return self.executor.map(fn, seg_nos, work, parallel=self.parallel)

    def _search(
        self,
        local,
        bitmaps: list[Bitmap] | None,
        seg_nos: list[int] | None,
        limit: int | None,
    ) -> SearchResult:
        """What top-k and range share: skip segments outside ``seg_nos`` or with a
        known-empty pre-filter, fan ``local(seg_no, bitmap)`` out, merge by (distance, vid)."""
        store = self.store
        num_segments = store.num_segments
        per_segment = self._segment_bitmaps(bitmaps, num_segments)
        stats = ActionStats()
        start = time.perf_counter()
        candidates = (
            range(num_segments)
            if seg_nos is None
            else [seg_no for seg_no in seg_nos if 0 <= seg_no < num_segments]
        )
        seg_nos = [
            seg_no
            for seg_no in candidates
            if per_segment[seg_no] is None or per_segment[seg_no].count() > 0
        ]
        work = [self._scan_work(seg_no, per_segment[seg_no]) for seg_no in seg_nos]
        outputs = self._run_segments(
            lambda seg_no: local(seg_no, per_segment[seg_no]), seg_nos, work
        )
        merged: list[tuple[float, int]] = []
        for out in outputs:
            stats.segments_touched += 1
            stats.segments_bruteforce += int(out.used_bruteforce)
            stats.candidates += len(out.offsets)
            base = out.seg_no * store.segment_size
            merged.extend(zip(out.distances, (base + o for o in out.offsets)))
        merged.sort()
        merged = merged[:limit]
        stats.elapsed_seconds = time.perf_counter() - start
        self.last_stats = stats
        if not merged:
            return SearchResult.empty()
        dists, vids = zip(*merged)
        return SearchResult(np.asarray(vids), np.asarray(dists, dtype=np.float32))

    # --------------------------------------------------------------- top-k
    def topk(
        self,
        query: np.ndarray,
        k: int,
        snapshot_tid: int,
        ef: int | None = None,
        bitmaps: list[Bitmap] | None = None,
        seg_nos: list[int] | None = None,
    ) -> SearchResult:
        """Global top-k: local per-segment search + coordinator merge.

        ``bitmaps`` is one pre-filter bitmap per segment (or ``None`` for a
        pure search, which wraps the vertex status structure instead).
        ``seg_nos`` restricts the search to a subset of segment ordinals
        (the elastic tier's shard-ownership path); ``None`` searches every
        segment.  Returns global vids (= seg_no * segment_size + offset).
        """
        if k <= 0:
            raise VectorSearchError("k must be positive")
        store = self.store

        def local(seg_no: int, bitmap: Bitmap | None) -> SegmentSearchOutput:
            return store.search_segment(seg_no, query, k, snapshot_tid, ef=ef, bitmap=bitmap)

        return self._search(local, bitmaps, seg_nos, k)

    # ---------------------------------------------------------- fused top-k
    def topk_batch(
        self,
        queries: np.ndarray,
        k: int,
        snapshot_tid: int,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Local top-k of every segment for all Q queries at once, unmerged.

        The exact batch scan (:meth:`EmbeddingStore.search_segment_batch`).
        Returns one ``(distances, vids)`` pair per segment, both ``(Q, top)``
        with row ``q`` sorted by (distance, vid).  The caller merges across
        segments and attributes in one sort.
        """
        store = self.store
        seg_nos = list(range(store.num_segments))
        num_queries = queries.shape[0]
        context = MultiQueryContext.build(store.embedding.metric, queries)
        # Every segment is scanned, so every step releases the GIL; a step
        # costs the columns it multiplies by the (Q, d+1) query block.
        width = num_queries * (queries.shape[1] + 1)
        work = [store.fused_scan_columns(seg_no) * width for seg_no in seg_nos]

        def local(seg_no: int) -> tuple[np.ndarray, np.ndarray]:
            dists, offsets = store.search_segment_batch(
                seg_no, queries, k, snapshot_tid, context=context
            )
            return dists, offsets + seg_no * store.segment_size

        return self._run_segments(local, seg_nos, work)

    # --------------------------------------------------------------- range
    def range(
        self,
        query: np.ndarray,
        threshold: float,
        snapshot_tid: int,
        ef: int | None = None,
        bitmaps: list[Bitmap] | None = None,
    ) -> SearchResult:
        """Global range search: per-segment RangeSearch + merge (Sec. 5.1)."""
        store = self.store

        def local(seg_no: int, bitmap: Bitmap | None) -> SegmentSearchOutput:
            # The probes are search_segment calls, so range search sees the
            # same MVCC view and delta overlay as topk.
            def probe(k: int) -> SegmentSearchOutput:
                return store.search_segment(seg_no, query, k, snapshot_tid, ef=ef, bitmap=bitmap)

            out = grow_topk_to_radius(probe, threshold, store.segment_size)
            within = bisect_left(out.distances, threshold)  # ascending
            return SegmentSearchOutput(
                seg_no, out.offsets[:within], out.distances[:within], out.used_bruteforce
            )

        return self._search(local, bitmaps, None, None)
