"""EmbeddingAction: segment-parallel vector search with global merge (Sec. 5.1).

TigerVector executes a top-k query by searching each embedding segment's
index independently, then merging the local top-k lists into the global
answer.  The plan notation from the paper::

    EmbeddingAction[Top k, {s.content_emb}, query_vector]

This module is the one place a store's segments are searched, priced for
the pool and merged: :func:`topk`, :func:`range_search` and the fused
:func:`topk_batch` run the segment loop, :func:`merge_topk` is the one
(distance, vid) merge, and :func:`map` is the one fan-out rule.

A per-segment pre-filter :class:`~repro.index.bitmap.Bitmap` may be supplied
(from a WHERE predicate or a graph pattern); segments whose valid count falls
below the store's threshold flip to brute force automatically inside
:meth:`EmbeddingStore.search_segment`.

Every segment distance is already a float32 value (the index's
:class:`~repro.index.interface.SearchResult` and the distance kernels are
float32), so the merged pairs carry exactly the float32 distances.

The top-k and range searches report which segments were touched and how many
used brute force — the statistics behind the IC5-vs-IC11 discussion in
Sec. 6.5.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Container, Iterable, Sequence

import numpy as np

from ..index.bitmap import Bitmap
from ..index.kernels import MultiQueryContext
from ..index.range_search import grow_topk_to_radius
from .service import EmbeddingStore, SegmentSearchOutput

__all__ = ["HANDOFF_WORK", "ActionStats", "map", "merge_topk", "range_search", "topk", "topk_batch"]

#: Multiply-adds of GIL-releasing NumPy work above which handing a segment
#: step to the pool is faster than running it in the caller's thread.  A
#: measurement, not a knob: on two CPUs four (Q=8, d=128) scans run pooled
#: in 0.7-0.9x the inline time from 3.3 M multiply-adds per step and in
#: 1.0-1.7x up to 1.6 M; re-measured against the in-place fused scan, the
#: pool loses at 1.65 M and wins from 2.48 M (DESIGN §9.6 has the runs).
HANDOFF_WORK = 3_000_000

#: Threads of the one shared segment pool, started on first hand-off.
WORKERS = min(32, os.cpu_count() or 4)

_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()

Pairs = list[tuple[float, int]]


@dataclass
class ActionStats:
    """Execution statistics for one segment-loop search."""

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


def _pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=WORKERS, thread_name_prefix="segment")
        return _POOL


def map(fn: Callable[[Any], Any], items: Iterable[Any], work: Sequence[int]) -> list:
    """Run ``fn`` over ``items``, returning results in input order.

    The one fan-out rule of the segment loop (DESIGN §9.6): ``work[i]``
    estimates item ``i``'s GIL-releasing NumPy work in multiply-adds, 0 for
    a step that holds the GIL such as an HNSW traversal.  Only items above
    :data:`HANDOFF_WORK` go to the shared pool; every other item runs in the
    caller's thread, which finishes it sooner than a hand-off would.  A
    single item or a one-worker pool never uses the pool.
    """
    items = list(items)
    futures: dict[int, Future] = {}
    if len(items) > 1 and WORKERS > 1:
        futures = {
            i: _pool().submit(fn, items[i])
            for i, estimate in enumerate(work)
            if estimate > HANDOFF_WORK
        }
    results = [None if i in futures else fn(item) for i, item in enumerate(items)]
    for i, future in futures.items():
        results[i] = future.result()
    return results


def merge_topk(pair_lists: Iterable[Iterable[tuple[float, int]]], k: int | None) -> Pairs:
    """The one (distance, vid) merge: local lists -> the first ``k`` pairs.

    The local top-k (or range) lists are merged under the (distance, vid)
    total order, so the answer is the same however the candidates were split
    into lists; ``k=None`` keeps every pair (range search).
    """
    return sorted(chain.from_iterable(pair_lists))[:k]


def _segment_loop(
    store: EmbeddingStore,
    local: Callable[[int, Bitmap | None], SegmentSearchOutput],
    bitmaps: Sequence[Bitmap] | None,
    seg_nos: Container[int] | None,
    k: int | None,
) -> tuple[Pairs, ActionStats]:
    """What top-k and range share: skip segments outside ``seg_nos`` or with a
    known-empty pre-filter (absent trailing bitmaps are empty), fan
    ``local(seg_no, bitmap)`` out, merge by (distance, vid)."""
    start = time.perf_counter()
    searched = [
        seg_no
        for seg_no in range(store.num_segments)
        if (seg_nos is None or seg_no in seg_nos)
        and (bitmaps is None or (seg_no < len(bitmaps) and bitmaps[seg_no].count() > 0))
    ]
    per_segment = {seg_no: None if bitmaps is None else bitmaps[seg_no] for seg_no in searched}
    outputs = map(
        lambda seg_no: local(seg_no, per_segment[seg_no]),
        searched,
        [store.scan_work(seg_no, per_segment[seg_no]) for seg_no in searched],
    )
    top = merge_topk((out.vid_pairs(store.segment_size) for out in outputs), k)
    stats = ActionStats(
        segments_touched=len(outputs),
        segments_bruteforce=sum(out.used_bruteforce for out in outputs),
        candidates=sum(len(out.offsets) for out in outputs),
        elapsed_seconds=time.perf_counter() - start,
    )
    return top, stats


def topk(
    store: EmbeddingStore,
    query: np.ndarray,
    k: int,
    snapshot_tid: int,
    ef: int | None = None,
    bitmaps: Sequence[Bitmap] | None = None,
    seg_nos: Container[int] | None = None,
) -> tuple[Pairs, ActionStats]:
    """Global top-k: local per-segment search + coordinator merge.

    ``bitmaps`` is one pre-filter bitmap per segment (or ``None`` for a
    pure search, which wraps the vertex status structure instead).
    ``seg_nos`` restricts the search to the segment ordinals it contains
    (the elastic tier's shard-ownership path); ``None`` searches every
    segment.  Returns the sorted ``(distance, vid)`` pairs over global vids
    (= seg_no * segment_size + offset) and the search's statistics.
    """

    def local(seg_no: int, bitmap: Bitmap | None) -> SegmentSearchOutput:
        return store.search_segment(seg_no, query, k, snapshot_tid, ef=ef, bitmap=bitmap)

    return _segment_loop(store, local, bitmaps, seg_nos, k)


def topk_batch(
    store: EmbeddingStore,
    queries: np.ndarray,
    k: int,
    snapshot_tid: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Local top-k of every segment for all Q queries at once, unmerged.

    The exact batch scan (:meth:`EmbeddingStore.search_segment_batch`).
    Returns one ``(distances, vids)`` pair per segment, both ``(Q, top)``
    with row ``q`` sorted by (distance, vid).  The caller merges across
    segments and attributes in one sort (DESIGN §10.3).
    """
    seg_nos = list(range(store.num_segments))
    context = MultiQueryContext.build(store.embedding.metric, queries)
    # Every segment is scanned, so every step releases the GIL; a step
    # costs the columns it multiplies by the (Q, d+1) query block.
    width = queries.shape[0] * (queries.shape[1] + 1)

    def local(seg_no: int) -> tuple[np.ndarray, np.ndarray]:
        dists, offsets = store.search_segment_batch(
            seg_no, queries, k, snapshot_tid, context=context
        )
        return dists, offsets + seg_no * store.segment_size

    return map(local, seg_nos, [store.fused_scan_columns(seg_no) * width for seg_no in seg_nos])


def range_search(
    store: EmbeddingStore,
    query: np.ndarray,
    threshold: float,
    snapshot_tid: int,
    ef: int | None = None,
    bitmaps: Sequence[Bitmap] | None = None,
) -> tuple[Pairs, ActionStats]:
    """Global range search: per-segment RangeSearch + merge (Sec. 5.1)."""

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

    return _segment_loop(store, local, bitmaps, None, None)
