"""MPP parallel primitives: VertexAction and EdgeAction (paper Sec. 2.1).

TigerGraph exposes two parallel primitives that run user functions across
segments; TigerVector adds a third, EmbeddingAction, in
:mod:`repro.core.action`.  Here segments map to thread-pool tasks.  Python
threads contend on the GIL for pure-Python work, but the numpy distance
kernels used by vector search release it, so the architecture carries over:
segments are the unit of parallelism, and per-segment results are merged by
the caller.  :meth:`MPPExecutor.map` therefore pools a search step only
when it is such a kernel and large enough to repay the hand-off; an HNSW
traversal holds the GIL and runs in the caller's thread.

The pool is shared: ``max_workers`` defaults to the CPU count and can be
set lower when foreground queries need headroom.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Sequence, TypeVar

from .segment import SegmentState
from .txn import Snapshot

__all__ = ["HANDOFF_WORK", "MPPExecutor", "edge_action", "vertex_action"]

R = TypeVar("R")

#: Multiply-adds of GIL-releasing NumPy work above which handing a segment
#: step to the pool is faster than running it in the caller's thread.  A
#: measurement, not a knob: on two CPUs four (Q=8, d=128) scans run pooled
#: in 0.7-0.9x the inline time from 3.3 M multiply-adds per step and in
#: 1.0-1.7x up to 1.6 M; re-measured against the in-place fused scan, the
#: pool loses at 1.65 M and wins from 2.48 M (DESIGN §9.6 has the runs).
HANDOFF_WORK = 3_000_000


class MPPExecutor:
    """A reusable worker pool for segment-parallel actions."""

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers or min(32, (os.cpu_count() or 4))
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="mpp"
            )
        return self._pool

    def submit(self, fn: Callable[..., R], /, *args, **kwargs) -> "Future[R]":
        """Schedule one call on the shared pool (lazy-started)."""
        return self._ensure_pool().submit(fn, *args, **kwargs)

    def map(
        self,
        fn: Callable[[Any], R],
        items: Iterable[Any],
        work: Sequence[int],
        parallel: bool = True,
    ) -> list[R]:
        """Run ``fn`` over ``items``, returning results in input order.

        The one fan-out rule of the segment-parallel search actions:
        ``work[i]`` estimates item ``i``'s GIL-releasing NumPy work in
        multiply-adds (rows scanned × queries × dimension), 0 for a step
        that holds the GIL such as an HNSW traversal.  Only items above
        :data:`HANDOFF_WORK` go to the pool; every other item runs in the
        caller's thread, which finishes it sooner than a hand-off would.
        ``parallel=False``, a one-worker pool or a single item never use the
        pool.
        """
        items = list(items)
        futures: dict[int, Future] = {}
        if parallel and len(items) > 1 and self.max_workers > 1:
            futures = {
                i: self.submit(fn, items[i])
                for i, estimate in enumerate(work)
                if estimate > HANDOFF_WORK
            }
        results = [None if i in futures else fn(item) for i, item in enumerate(items)]
        for i, future in futures.items():
            results[i] = future.result()
        return results

    def map_segments(
        self,
        fn: Callable[[int, SegmentState], R],
        snapshot: Snapshot,
        vertex_type: str,
        seg_nos: Sequence[int] | None = None,
        parallel: bool = True,
    ) -> list[R]:
        """Run ``fn(seg_no, segment_state)`` over segments, returning results in order."""
        if seg_nos is None:
            seg_nos = range(snapshot.num_segments(vertex_type))
        states = [(seg_no, snapshot.segment_state(vertex_type, seg_no)) for seg_no in seg_nos]
        if not parallel or len(states) <= 1 or self.max_workers <= 1:
            return [fn(seg_no, state) for seg_no, state in states]
        futures = [self.submit(fn, seg_no, state) for seg_no, state in states]
        return [future.result() for future in futures]

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "MPPExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


_DEFAULT_EXECUTOR = MPPExecutor()


def vertex_action(
    snapshot: Snapshot,
    vertex_type: str,
    fn: Callable[[int, dict[str, Any]], R | None],
    executor: MPPExecutor | None = None,
    parallel: bool = True,
) -> list[R]:
    """Apply ``fn(vid, attrs)`` to every live vertex; collect non-None results.

    This is TigerGraph's *VertexAction*: the function runs segment-parallel
    and results are concatenated in segment order (deterministic).
    """
    executor = executor or _DEFAULT_EXECUTOR
    capacity = snapshot._store.segment_size

    def per_segment(seg_no: int, state: SegmentState) -> list[R]:
        base = seg_no * capacity
        results: list[R] = []
        for offset in state.iter_live_offsets():
            out = fn(base + offset, state.get_row(offset))
            if out is not None:
                results.append(out)
        return results

    chunks = executor.map_segments(per_segment, snapshot, vertex_type, parallel=parallel)
    return [item for chunk in chunks for item in chunk]


def edge_action(
    snapshot: Snapshot,
    vertex_type: str,
    edge_type: str,
    fn: Callable[[int, int, dict | None], R | None],
    executor: MPPExecutor | None = None,
    reverse: bool = False,
    parallel: bool = True,
) -> list[R]:
    """Apply ``fn(source_vid, target_vid, edge_attrs)`` to every out-edge.

    Edges live in their source vertex's segment, so EdgeAction parallelizes
    over source segments exactly like VertexAction.
    """
    from .segment import reverse_edge_key

    executor = executor or _DEFAULT_EXECUTOR
    capacity = snapshot._store.segment_size
    key = reverse_edge_key(edge_type) if reverse else edge_type

    def per_segment(seg_no: int, state: SegmentState) -> list[R]:
        base = seg_no * capacity
        results: list[R] = []
        for offset in state.iter_live_offsets():
            vid = base + offset
            for target, attrs in state.neighbors(offset, key):
                out = fn(vid, target, attrs)
                if out is not None:
                    results.append(out)
        return results

    chunks = executor.map_segments(per_segment, snapshot, vertex_type, parallel=parallel)
    return [item for chunk in chunks for item in chunk]
