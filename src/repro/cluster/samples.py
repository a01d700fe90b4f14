"""Measured segment service times: what the Fig. 9/10 model replays.

The cluster simulator does not search; it replays per-segment search times
through its coordinator/worker model.  :func:`measure_samples` is the one
place those times are measured: each segment's real ``search_segment`` call
is timed on its own, and the local top-k lists go through the one
(distance, vid) merge (:func:`repro.core.action.merge_topk`, Sec. 5.1), so
the same pass yields the answer a recall check scores.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.action import merge_topk
from ..index.interface import SearchResult

__all__ = ["measure_samples"]


def measure_samples(
    store,
    queries: np.ndarray,
    k: int,
    snapshot_tid: int,
    ef: int | None = None,
) -> tuple[list[dict[int, float]], list[SearchResult]]:
    """Per query: ``{seg_no: seconds}`` of every segment, and the merged top-k.

    ``store`` is an :class:`~repro.core.service.EmbeddingStore`.  The
    samples feed :class:`~repro.cluster.loadgen.ClosedLoopLoadGenerator`;
    each result is the global top-k over global vids (``seg_no *
    segment_size + offset``) under the (distance, vid) order, the same
    answer :func:`~repro.core.action.topk` returns.
    """
    samples: list[dict[int, float]] = []
    results: list[SearchResult] = []
    for query in np.asarray(queries, dtype=np.float32):
        seconds: dict[int, float] = {}
        local = []
        for seg_no in range(store.num_segments):
            start = time.perf_counter()
            out = store.search_segment(seg_no, query, k, snapshot_tid, ef=ef)
            seconds[seg_no] = time.perf_counter() - start
            local.append(out.vid_pairs(store.segment_size))
        samples.append(seconds)
        top = merge_topk(local, k)
        results.append(SearchResult([vid for _, vid in top], [dist for dist, _ in top]))
    return samples, results
