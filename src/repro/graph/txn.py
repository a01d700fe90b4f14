"""Transactions and snapshots (MVCC, paper Sec. 4.3).

A :class:`Transaction` buffers all writes; nothing is visible until commit.
At commit the store's commit lock serializes TID assignment, the operation
list is WAL-logged, graph mutations become segment deltas, and embedding
mutations are forwarded — under the *same* TID — to the embedding service's
delta store.  That shared TID is what makes mixed graph/vector updates
atomic, one of the paper's headline guarantees.

A :class:`Snapshot` pins a read TID.  It registers itself with the store so
the vacuum knows which old segment/index versions are still reachable, and
must be released (use it as a context manager) to let garbage collection
proceed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator

import numpy as np

from ..errors import TransactionError, UnknownTypeError
from .segment import SegmentState, reverse_edge_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .storage import GraphStore

__all__ = ["Snapshot", "Transaction"]


class Transaction:
    """A buffered read-write transaction.

    Operations (all keyed by primary key; vids are an internal detail):

    - :meth:`upsert_vertex` / :meth:`delete_vertex`
    - :meth:`add_edge` / :meth:`delete_edge`
    - :meth:`set_embedding` / :meth:`delete_embedding`
    """

    def __init__(self, store: "GraphStore"):
        self._store = store
        self._ops: list[tuple] = []
        self._state = "active"
        self.tid: int | None = None

    # ------------------------------------------------------------- helpers
    def _check_active(self) -> None:
        if self._state != "active":
            raise TransactionError(f"transaction is {self._state}; no further writes allowed")

    @property
    def pending_ops(self) -> int:
        return len(self._ops)

    # ------------------------------------------------------------- vertices
    def upsert_vertex(self, vertex_type: str, pk: Any, attrs: dict[str, Any] | None = None) -> None:
        self._check_active()
        vtype = self._store.schema.vertex_type(vertex_type)
        attrs = dict(attrs or {})
        for name in attrs:
            if name not in vtype.attributes:
                raise UnknownTypeError(f"vertex '{vertex_type}' has no attribute '{name}'")
        attrs.setdefault(vtype.primary_key, pk)
        self._ops.append(("upsert_vertex", vertex_type, pk, attrs))

    def delete_vertex(self, vertex_type: str, pk: Any) -> None:
        self._check_active()
        self._store.schema.vertex_type(vertex_type)
        self._ops.append(("delete_vertex", vertex_type, pk))

    # --------------------------------------------------------------- edges
    def add_edge(
        self,
        edge_type: str,
        from_pk: Any,
        to_pk: Any,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self._check_active()
        self._store.schema.edge_type(edge_type)
        self._ops.append(("add_edge", edge_type, from_pk, to_pk, dict(attrs or {})))

    def delete_edge(self, edge_type: str, from_pk: Any, to_pk: Any) -> None:
        self._check_active()
        self._store.schema.edge_type(edge_type)
        self._ops.append(("delete_edge", edge_type, from_pk, to_pk))

    # ----------------------------------------------------------- embeddings
    def set_embedding(self, vertex_type: str, pk: Any, attr: str, vector) -> None:
        """Upsert a vector; validated against the embedding type's metadata."""
        self._check_active()
        etype = self._store.schema.vertex_type(vertex_type).embedding(attr)
        arr = etype.validate_vector(np.asarray(vector))
        self._ops.append(("set_embedding", vertex_type, pk, attr, arr))

    def delete_embedding(self, vertex_type: str, pk: Any, attr: str) -> None:
        self._check_active()
        self._store.schema.vertex_type(vertex_type).embedding(attr)
        self._ops.append(("delete_embedding", vertex_type, pk, attr))

    # ------------------------------------------------------------ lifecycle
    def commit(self) -> int:
        """Atomically apply all buffered operations; returns the TID."""
        self._check_active()
        tid = self._store._commit(self._ops)
        self._state = "committed"
        self.tid = tid
        return tid

    def rollback(self) -> None:
        self._check_active()
        self._ops.clear()
        self._state = "aborted"

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._state != "active":
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()


class Snapshot:
    """A consistent read view of the whole store at one TID."""

    def __init__(self, store: "GraphStore", tid: int):
        self._store = store
        self.tid = tid
        self._released = False
        self._state_cache: dict[tuple[str, int], SegmentState] = {}

    # ------------------------------------------------------------- plumbing
    def release(self) -> None:
        if not self._released:
            self._store._release_snapshot(self)
            self._released = True

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def _segment_state(self, vertex_type: str, seg_no: int) -> SegmentState:
        key = (vertex_type, seg_no)
        state = self._state_cache.get(key)
        if state is None:
            segment = self._store._segment(vertex_type, seg_no)
            state = segment.read_state(self.tid)
            self._state_cache[key] = state
        return state

    def _locate(self, vertex_type: str, vid: int) -> tuple[SegmentState, int]:
        capacity = self._store.segment_size
        return self._segment_state(vertex_type, vid // capacity), vid % capacity

    # ---------------------------------------------------------------- reads
    def vid_for_pk(self, vertex_type: str, pk: Any) -> int | None:
        vid = self._store._pk_index.get(vertex_type, {}).get(pk)
        if vid is None:
            return None
        state, offset = self._locate(vertex_type, vid)
        return vid if state.exists(offset) else None

    def vertex_exists(self, vertex_type: str, vid: int) -> bool:
        state, offset = self._locate(vertex_type, vid)
        return state.exists(offset)

    def get_attr(self, vertex_type: str, vid: int, name: str) -> Any:
        state, offset = self._locate(vertex_type, vid)
        return state.get_attr(offset, name) if state.exists(offset) else None

    def get_vertex(self, vertex_type: str, vid: int) -> dict[str, Any] | None:
        state, offset = self._locate(vertex_type, vid)
        return state.get_row(offset) if state.exists(offset) else None

    def neighbors(
        self,
        vertex_type: str,
        vid: int,
        edge_type: str,
        reverse: bool = False,
        with_attrs: bool = False,
    ) -> list:
        """Out-neighbors (or in-neighbors with ``reverse=True``) of one vertex.

        Returns target vids, or ``(vid, attrs)`` pairs when ``with_attrs``.
        """
        state, offset = self._locate(vertex_type, vid)
        if not state.exists(offset):
            return []
        key = reverse_edge_key(edge_type) if reverse else edge_type
        pairs = state.neighbors(offset, key)
        if with_attrs:
            return list(pairs)
        return [target for target, _ in pairs]

    def degree(self, vertex_type: str, vid: int, edge_type: str, reverse: bool = False) -> int:
        return len(self.neighbors(vertex_type, vid, edge_type, reverse=reverse))

    def num_segments(self, vertex_type: str) -> int:
        return self._store._num_segments(vertex_type)

    @property
    def segment_size(self) -> int:
        return self._store.segment_size

    def segment_state(self, vertex_type: str, seg_no: int) -> SegmentState:
        """Expose the per-segment view; used by MPP actions and vector search."""
        return self._segment_state(vertex_type, seg_no)

    def iter_vids(self, vertex_type: str) -> Iterator[int]:
        capacity = self._store.segment_size
        for seg_no in range(self._store._num_segments(vertex_type)):
            state = self._segment_state(vertex_type, seg_no)
            base = seg_no * capacity
            for offset in state.iter_live_offsets():
                yield base + offset

    def count(self, vertex_type: str) -> int:
        return sum(1 for _ in self.iter_vids(vertex_type))

    def scan(self, vertex_type: str, predicate=None) -> Iterator[tuple[int, dict[str, Any]]]:
        """Yield ``(vid, attrs)`` for live vertices, optionally filtered."""
        capacity = self._store.segment_size
        for seg_no in range(self._store._num_segments(vertex_type)):
            state = self._segment_state(vertex_type, seg_no)
            base = seg_no * capacity
            for offset in state.iter_live_offsets():
                row = state.get_row(offset)
                if predicate is None or predicate(row):
                    yield base + offset, row

    def valid_bitmaps(self, vertex_type: str) -> list[np.ndarray]:
        """Per-segment live-vertex masks — the reusable status bitmap of Sec. 5.1."""
        return [
            self._segment_state(vertex_type, seg_no).valid_mask()
            for seg_no in range(self._store._num_segments(vertex_type))
        ]

    def bitmap_from_vids(self, vertex_type: str, vids: Iterable[int]) -> list[np.ndarray]:
        """Per-segment masks marking exactly the given vids (pre-filter input).

        Vids beyond the last segment are ignored.
        """
        capacity = self._store.segment_size
        masks = np.zeros((self._store._num_segments(vertex_type), capacity), dtype=bool)
        arr = np.fromiter(vids, dtype=np.int64)
        masks.reshape(-1)[arr[(arr >= 0) & (arr < masks.size)]] = True
        return list(masks)
