"""GraphStore: segmented vertex/edge storage with MVCC and a WAL.

The store owns, per vertex type, a growable array of fixed-size
:class:`~repro.graph.segment.Segment` objects and a primary-key index.  It
serializes commits under a lock (TigerGraph's atomic commit protocol), logs
each transaction to the WAL before applying it, registers live snapshots so
the vacuum never reclaims a version that a reader can still see, and forwards
embedding mutations to a registered hook (the embedding service installs
itself there) *under the same TID* — the mechanism behind TigerVector's
atomic mixed graph/vector updates.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

from ..analysis.hooks import schedule_point
from ..errors import ReproError, TransactionError, UnknownTypeError
from .schema import GraphSchema
from .segment import DeltaOp, Segment, reverse_edge_key
from .txn import Snapshot, Transaction
from .wal import WriteAheadLog

__all__ = ["GraphStore"]

#: ``(tid, ops)`` callback type; ops are ``(kind, vertex_type, vid, attr, vector|None)``.
EmbeddingHook = Callable[[int, list[tuple]], None]


class GraphStore:
    """A single-process graph database instance.

    Parameters
    ----------
    schema:
        The catalog; may be extended (new types) after creation.
    segment_size:
        Vertex-segment capacity.  The paper uses large segments (the unit of
        distribution); tests use small values to exercise multi-segment paths.
    wal_path:
        Optional path for the write-ahead log; ``None`` keeps it in memory.
    """

    def __init__(
        self,
        schema: GraphSchema,
        segment_size: int = 4096,
        wal_path=None,
    ):
        if segment_size <= 0:
            raise ReproError("segment_size must be positive")
        self.schema = schema
        self.segment_size = segment_size
        self.wal = WriteAheadLog(wal_path)
        self._segments: dict[str, list[Segment]] = {}
        self._next_vid: dict[str, int] = {}
        self._pk_index: dict[str, dict[Any, int]] = {}
        self._commit_lock = threading.Lock()
        # Reentrant guard for the type/segment registry and pk index: taken
        # alone on read paths and nested under _commit_lock on write paths
        # (consistent order: _commit_lock -> _registry_lock, never reversed).
        self._registry_lock = threading.RLock()
        self._last_tid = 0
        self._active_snapshots: dict[int, int] = {}  # tid -> refcount
        self._snapshot_lock = threading.Lock()
        self._embedding_hooks: list[EmbeddingHook] = []
        # Crash-injection failpoint (repro.faults): called inside the commit
        # critical section at stages "pre-wal", "post-wal", and "apply"
        # (once per op).  Raising SimulatedCrash there models a process
        # dying mid-commit; recovery must then come from the WAL file.
        self._commit_failpoint: Callable[[str, int], None] | None = None

    # ---------------------------------------------------------------- hooks
    def register_embedding_hook(self, hook: EmbeddingHook) -> None:
        """Install a callback invoked inside commit with embedding ops."""
        with self._registry_lock:
            self._embedding_hooks.append(hook)

    def set_commit_failpoint(self, failpoint: Callable[[str, int], None] | None) -> None:
        """Install (or clear) the mid-commit crash-injection failpoint."""
        self._commit_failpoint = failpoint

    # ------------------------------------------------------------- segments
    def _ensure_type(self, vertex_type: str) -> None:
        if vertex_type in self._segments:
            return
        self.schema.vertex_type(vertex_type)  # raises if unknown
        with self._registry_lock:
            if vertex_type not in self._segments:
                self._next_vid[vertex_type] = 0
                self._pk_index[vertex_type] = {}
                # Assigned last: readers key presence checks off _segments.
                self._segments[vertex_type] = []

    def _segment(self, vertex_type: str, seg_no: int) -> Segment:
        self._ensure_type(vertex_type)
        segments = self._segments[vertex_type]
        if len(segments) <= seg_no:
            with self._registry_lock:
                while len(segments) <= seg_no:
                    segments.append(
                        Segment(
                            self.schema.vertex_type(vertex_type),
                            len(segments),
                            self.segment_size,
                        )
                    )
        return segments[seg_no]

    def _num_segments(self, vertex_type: str) -> int:
        self._ensure_type(vertex_type)
        return len(self._segments[vertex_type])

    def segments(self, vertex_type: str) -> list[Segment]:
        self._ensure_type(vertex_type)
        return list(self._segments[vertex_type])

    # ----------------------------------------------------------- id mapping
    def vid_for_pk(self, vertex_type: str, pk: Any) -> int | None:
        """Latest-committed pk lookup (snapshot-aware reads go via Snapshot)."""
        self._ensure_type(vertex_type)
        return self._pk_index[vertex_type].get(pk)

    def pk_for_vid(self, vertex_type: str, vid: int) -> Any:
        vtype = self.schema.vertex_type(vertex_type)
        with self.snapshot() as snap:
            return snap.get_attr(vertex_type, vid, vtype.primary_key)

    def _allocate_vid(self, vertex_type: str, pk: Any) -> int:
        with self._registry_lock:
            index = self._pk_index[vertex_type]
            vid = index.get(pk)
            if vid is None:
                vid = self._next_vid[vertex_type]
                self._next_vid[vertex_type] = vid + 1
                index[pk] = vid
            return vid

    # ------------------------------------------------------------ lifecycle
    def begin(self) -> Transaction:
        return Transaction(self)

    def snapshot(self) -> Snapshot:
        schedule_point("storage.snapshot.pin")
        with self._snapshot_lock:
            tid = self._last_tid
            self._active_snapshots[tid] = self._active_snapshots.get(tid, 0) + 1
        return Snapshot(self, tid)

    def _release_snapshot(self, snapshot: Snapshot) -> None:
        with self._snapshot_lock:
            count = self._active_snapshots.get(snapshot.tid, 0) - 1
            if count <= 0:
                self._active_snapshots.pop(snapshot.tid, None)
            else:
                self._active_snapshots[snapshot.tid] = count

    def min_active_snapshot_tid(self) -> int:
        """Oldest TID any live reader may still observe."""
        with self._snapshot_lock:
            if not self._active_snapshots:
                return self._last_tid
            return min(self._active_snapshots)

    @property
    def last_tid(self) -> int:
        return self._last_tid

    def session_token(self) -> int:
        """Read-your-writes token: the latest *published* commit TID.

        :meth:`Transaction.commit` returns the committed TID directly —
        that return value IS the session token for the writes it covers.
        This accessor exists for sessions that observed a write indirectly
        (e.g. through a commit hook) and need a token for "everything
        published so far".  A serving snapshot covers a token ``t`` iff
        ``snapshot.tid >= t``; the serve layer's session-token check
        (``repro.serve``) enforces exactly that, closing the window where a
        commit's embedding hook has fired (watermark bumped, token derivable)
        but ``last_tid`` is not yet published.
        """
        with self._snapshot_lock:
            return self._last_tid

    # ---------------------------------------------------------------- commit
    def _commit(self, ops: list[tuple]) -> int:
        with self._commit_lock:
            tid = self._last_tid + 1
            failpoint = self._commit_failpoint
            if failpoint is not None:
                failpoint("pre-wal", tid)
            self.wal.append(tid, ops)
            if failpoint is not None:
                failpoint("post-wal", tid)
            embedding_ops: list[tuple] = []
            for op in ops:
                if failpoint is not None:
                    failpoint("apply", tid)
                self._apply_op(tid, op, embedding_ops)
            if embedding_ops:
                for hook in self._embedding_hooks:
                    hook(tid, embedding_ops)
            # The window between the embedding hooks (which bump watermark
            # components) and publishing last_tid is the commit-race class
            # the serve cache validates against; make it explorable.
            schedule_point("storage.commit.publish")
            self._last_tid = tid
            return tid

    def _apply_op(self, tid: int, op: tuple, embedding_ops: list[tuple]) -> None:
        kind = op[0]
        if kind == "upsert_vertex":
            _, vertex_type, pk, attrs = op
            self._ensure_type(vertex_type)
            vid = self._allocate_vid(vertex_type, pk)
            seg_no, offset = divmod(vid, self.segment_size)
            vtype = self.schema.vertex_type(vertex_type)
            segment = self._segment(vertex_type, seg_no)
            # Merge into existing values so partial upserts keep old attrs.
            existing = segment.latest_row(offset)
            row = {name: attr.default for name, attr in vtype.attributes.items()}
            if existing:
                row.update({k: v for k, v in existing.items() if v is not None})
            row.update(attrs)
            segment.append_delta(DeltaOp(tid, "upsert", offset, row))
        elif kind == "delete_vertex":
            _, vertex_type, pk = op
            self._ensure_type(vertex_type)
            vid = self._pk_index[vertex_type].get(pk)
            if vid is None:
                return  # deleting a missing vertex is a no-op
            seg_no, offset = divmod(vid, self.segment_size)
            self._segment(vertex_type, seg_no).append_delta(DeltaOp(tid, "delete", offset))
            with self._registry_lock:
                self._pk_index[vertex_type].pop(pk, None)
            # Cascade: drop this vertex's embeddings too.
            vtype = self.schema.vertex_type(vertex_type)
            for attr in vtype.embeddings:
                embedding_ops.append(("delete", vertex_type, vid, attr, None))
        elif kind == "add_edge":
            _, edge_type, from_pk, to_pk, attrs = op
            etype = self.schema.edge_type(edge_type)
            from_vid = self._require_vid(etype.from_type, from_pk)
            to_vid = self._require_vid(etype.to_type, to_pk)
            self._add_half_edge(tid, etype.from_type, from_vid, edge_type, to_vid, attrs)
            self._add_half_edge(
                tid, etype.to_type, to_vid, reverse_edge_key(edge_type), from_vid, attrs
            )
            if not etype.directed:
                # Undirected edges are symmetric: store the mirrored pair of
                # half-edges too so forward traversal works from either end.
                self._add_half_edge(tid, etype.to_type, to_vid, edge_type, from_vid, attrs)
                self._add_half_edge(
                    tid, etype.from_type, from_vid, reverse_edge_key(edge_type), to_vid, attrs
                )
        elif kind == "delete_edge":
            _, edge_type, from_pk, to_pk = op
            etype = self.schema.edge_type(edge_type)
            from_vid = self._require_vid(etype.from_type, from_pk)
            to_vid = self._require_vid(etype.to_type, to_pk)
            self._del_half_edge(tid, etype.from_type, from_vid, edge_type, to_vid)
            self._del_half_edge(
                tid, etype.to_type, to_vid, reverse_edge_key(edge_type), from_vid
            )
            if not etype.directed:
                self._del_half_edge(tid, etype.to_type, to_vid, edge_type, from_vid)
                self._del_half_edge(
                    tid, etype.from_type, from_vid, reverse_edge_key(edge_type), to_vid
                )
        elif kind == "set_embedding":
            _, vertex_type, pk, attr, vector = op
            self._ensure_type(vertex_type)
            vid = self._require_vid(vertex_type, pk)
            embedding_ops.append(("upsert", vertex_type, vid, attr, vector))
        elif kind == "delete_embedding":
            _, vertex_type, pk, attr = op
            self._ensure_type(vertex_type)
            vid = self._require_vid(vertex_type, pk)
            embedding_ops.append(("delete", vertex_type, vid, attr, None))
        else:  # pragma: no cover - defensive
            raise ReproError(f"unknown transaction op '{kind}'")

    def _require_vid(self, vertex_type: str, pk: Any) -> int:
        self._ensure_type(vertex_type)
        vid = self._pk_index[vertex_type].get(pk)
        if vid is None:
            raise TransactionError(
                f"vertex {vertex_type}({pk!r}) does not exist; insert it first"
            )
        return vid

    def _add_half_edge(
        self, tid: int, vertex_type: str, vid: int, key: str, target: int, attrs: dict
    ) -> None:
        seg_no, offset = divmod(vid, self.segment_size)
        self._segment(vertex_type, seg_no).append_delta(
            DeltaOp(tid, "add_edge", offset, (key, target, attrs or None))
        )

    def _del_half_edge(self, tid: int, vertex_type: str, vid: int, key: str, target: int) -> None:
        seg_no, offset = divmod(vid, self.segment_size)
        self._segment(vertex_type, seg_no).append_delta(
            DeltaOp(tid, "del_edge", offset, (key, target, None))
        )

    # ---------------------------------------------------------------- vacuum
    def vacuum(self, up_to_tid: int | None = None) -> int:
        """Fold committed deltas into new segment versions.

        Returns the number of segments that produced a new version.  Old
        versions are garbage-collected based on the oldest live snapshot.
        """
        target = self._last_tid if up_to_tid is None else up_to_tid
        rebuilt = 0
        with self._commit_lock:
            for segments in self._segments.values():
                for segment in segments:
                    if segment.vacuum(target) is not None:
                        rebuilt += 1
            min_tid = self.min_active_snapshot_tid()
            for segments in self._segments.values():
                for segment in segments:
                    segment.gc_versions(min_tid)
        return rebuilt

    def pending_delta_count(self) -> int:
        return sum(
            segment.pending_delta_count
            for segments in self._segments.values()
            for segment in segments
        )

    # ------------------------------------------------------------- recovery
    @classmethod
    def recover(
        cls,
        schema: GraphSchema,
        wal_path,
        segment_size: int = 4096,
        embedding_hook: EmbeddingHook | None = None,
    ) -> "GraphStore":
        """Rebuild a store by replaying a WAL file into a fresh instance.

        ``embedding_hook`` (if given) is registered *before* replay so the
        embedding service recovers vector state from the same log.  The new
        store keeps logging to the same file, so recovery is idempotent
        across repeated crashes.
        """
        source = WriteAheadLog(wal_path)
        replayed: list[tuple[int, list]] = list(source.replay())
        source.close()
        store = cls(schema, segment_size=segment_size, wal_path=None)
        if embedding_hook is not None:
            store.register_embedding_hook(embedding_hook)
        for tid, ops in replayed:
            with store._commit_lock:
                embedding_ops: list[tuple] = []
                for op in ops:
                    store._apply_op(tid, tuple(op), embedding_ops)
                if embedding_ops:
                    for hook in store._embedding_hooks:
                        hook(tid, embedding_ops)
                store._last_tid = tid
        store.wal.close()
        store.wal = WriteAheadLog(wal_path)
        return store
