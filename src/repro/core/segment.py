"""Embedding segments: decoupled vector storage (paper Sec. 4.2).

Vectors belonging to one vertex segment are stored together in an
*embedding segment*, separate from the vertex segment's other attributes,
keeping the same local ids (offsets).  Each embedding segment owns its own
vector index, capping index size at the vertex-segment capacity and making
the segment the unit of parallel search, distribution, update, and recovery.

An :class:`EmbeddingSegment` holds two MVCC-versioned pieces:

- the raw vector array (``vectors`` + ``present`` mask) — the on-disk
  embedding segment in the paper; used for brute-force scans, similarity
  joins, and GetEmbedding;
- the index *snapshot* — an HNSW graph valid as of ``snapshot_tid``.

Both advance together when the index-merge vacuum installs a new snapshot
(:meth:`install_snapshot`).  Reads older than the current snapshot are served
by retained previous snapshots (``retired`` list) until the vacuum confirms
no live transaction needs them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..errors import ReproError, VectorSearchError
from ..index.interface import VectorIndex, create_index
from ..index.kernels import DistanceKernel
from ..types import Metric
from .delta import DELETE, UPSERT, DeltaRecord
from .embedding import EmbeddingType

__all__ = ["EmbeddingSegment", "SegmentSnapshot", "rebuild_index"]


@dataclass
class SegmentSnapshot:
    """One immutable (index, raw-vectors) pair valid as of ``tid``.

    Tiered storage (DESIGN §12) adds a second shape: a **cold** snapshot
    carries PQ codes (``pq``) instead of an index (``index is None``), and
    its ``vectors`` may be a read-only ``np.memmap`` spilled to disk.  Hot
    and cold snapshots move through exactly the same MVCC machinery — a
    tier transition is just ``install_snapshot`` of a same-``tid`` twin, so
    pinned readers keep the retired variant until GC proves it unreachable.
    """

    tid: int
    index: VectorIndex | None
    vectors: np.ndarray  # (capacity, dim), rows valid where present
    present: np.ndarray  # (capacity,) bool
    _kernel: DistanceKernel | None = None  # lazy scan kernel; never pickled
    tier: str = "hot"  # "hot" | "cold"
    pq: object | None = None  # PQCodes on cold snapshots

    def kernel(self, metric: Metric) -> DistanceKernel:
        """Distance kernel over this snapshot's raw vectors, built lazily.

        Snapshots are immutable once installed, so the augmented-row cache
        is computed once and shared by every brute-force/overlay scan that
        reads this snapshot.  (``bulk_load`` — the offline ingest path that
        mutates the current snapshot in place — drops the cache.)  Benign
        race under concurrent first calls: both build, one wins the write.

        Refused on cold snapshots: building the augmented-row cache would
        materialize every (possibly memmapped) row, defeating the tier.
        Cold reads go through the ADC kernel plus candidate-only rerank in
        :meth:`EmbeddingStore.search_segment` instead.
        """
        if self.tier != "hot":
            raise ReproError("scan kernel unavailable on a cold snapshot")
        kernel = self._kernel
        if kernel is None or kernel.metric is not metric:
            kernel = DistanceKernel.for_matrix(self.vectors, metric)
            self._kernel = kernel
        return kernel

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_kernel"] = None  # derived cache: rebuild on load, halve snapshots
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


class EmbeddingSegment:
    """One embedding attribute's vectors for one vertex segment."""

    def __init__(self, embedding: EmbeddingType, seg_no: int, capacity: int):
        self.embedding = embedding
        self.seg_no = seg_no
        self.capacity = capacity
        index = create_index(
            embedding.index, embedding.dimension, embedding.metric, dict(embedding.index_params)
        )
        self._current = SegmentSnapshot(
            tid=0,
            index=index,
            vectors=np.zeros((capacity, embedding.dimension), dtype=np.float32),
            present=np.zeros(capacity, dtype=bool),
        )
        self._retired: list[SegmentSnapshot] = []
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]  # locks are not picklable; recreate on load
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ----------------------------------------------------------- snapshots
    @property
    def snapshot_tid(self) -> int:
        return self._current.tid

    def snapshot_for(self, snapshot_tid: int) -> SegmentSnapshot:
        """Newest snapshot with ``tid <= snapshot_tid``.

        Deltas newer than the returned snapshot must be overlaid by the
        caller (see :meth:`EmbeddingStore.search_segment`).
        """
        with self._lock:
            if self._current.tid <= snapshot_tid:
                return self._current
            best = None
            for snap in self._retired:
                if snap.tid <= snapshot_tid and (best is None or snap.tid > best.tid):
                    best = snap
            if best is None:
                # All retained snapshots are newer than the reader: the
                # reader predates this segment's first vector, so an empty
                # view is correct.
                oldest = min(self._retired, key=lambda s: s.tid, default=self._current)
                if snapshot_tid < oldest.tid:
                    return _empty_like(self, 0)
                best = oldest
            return best

    def current_snapshot(self) -> SegmentSnapshot:
        """The newest snapshot (what an up-to-date reader would pin)."""
        with self._lock:
            return self._current

    def install_snapshot(self, snapshot: SegmentSnapshot) -> None:
        """Atomically switch to a newer snapshot, retiring the current one.

        Same-``tid`` installs are allowed: tier transitions publish a hot or
        cold twin of the current snapshot without inventing a new version.
        """
        with self._lock:
            if snapshot.tid < self._current.tid:
                raise ReproError("cannot install an older snapshot")
            self._retired.append(self._current)
            self._current = snapshot

    def gc_snapshots(self, min_active_snapshot_tid: int) -> int:
        """Drop retired snapshots no live transaction can still read.

        Mirrors the paper: *"The old index snapshot and delta files are
        deleted only after the new index snapshot is visible to all running
        transactions."*
        """
        with self._lock:
            survivors = []
            dropped = 0
            for snap in self._retired:
                # A retired snapshot is needed only if some reader's TID is
                # older than the snapshot that superseded it.  Conservative
                # rule: keep while min reader < current snapshot tid.
                if min_active_snapshot_tid < self._current.tid and snap.tid <= min_active_snapshot_tid:
                    survivors.append(snap)
                elif min_active_snapshot_tid < snap.tid:
                    survivors.append(snap)
                else:
                    dropped += 1
            self._retired = survivors
            return dropped

    # ------------------------------------------------------- direct access
    @property
    def index(self) -> VectorIndex:
        return self._current.index

    @property
    def vectors(self) -> np.ndarray:
        return self._current.vectors

    @property
    def present(self) -> np.ndarray:
        return self._current.present

    def live_count(self) -> int:
        return int(np.count_nonzero(self._current.present))

    def get_vector(self, offset: int, snapshot_tid: int | None = None) -> np.ndarray | None:
        snap = self._current if snapshot_tid is None else self.snapshot_for(snapshot_tid)
        if 0 <= offset < self.capacity and snap.present[offset]:
            return snap.vectors[offset].copy()
        return None

    # ---------------------------------------------------------- bulk build
    def bulk_load(self, offsets: np.ndarray, vectors: np.ndarray, tid: int) -> None:
        """Initial-load fast path: build the snapshot directly, no deltas.

        This is the optimized loading-tool path the paper credits for
        TigerVector's short data-load times (Table 2).  Offsets new to the
        index are built in one pass, then offsets an earlier load already
        put there are rewritten in record order.  A hot current snapshot is
        written in place; a cold one (tier-demoted: PQ codes, no index,
        rows perhaps a read-only memmap) is left as it is, and the load goes
        into a :meth:`hot_copy` that is then installed.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.float32)
        if offsets.size != vectors.shape[0]:
            raise VectorSearchError("offsets and vectors length mismatch")
        if np.any((offsets < 0) | (offsets >= self.capacity)):
            raise VectorSearchError("offset outside segment capacity")
        snap = self.current_snapshot()
        cold = snap.index is None
        if cold:
            snap = self.hot_copy(snap)
        snap.vectors[offsets] = vectors
        snap.present[offsets] = True
        snap._kernel = None  # in-place mutation invalidates the scan kernel
        snap.index.update_items(offsets.tolist(), vectors)
        snap.tid = max(snap.tid, tid)
        if cold:
            self.install_snapshot(snap)

    # ----------------------------------------------------- snapshot builds
    def hot_copy(self, snap: SegmentSnapshot) -> SegmentSnapshot:
        """A hot, same-tid copy of ``snap`` that can be written without
        touching ``snap``: its rows materialized (a cold snapshot's may be a
        read-only memmap) and its index cloned (``VectorIndex.clone``: an
        HNSW copies its state once, under its write lock, with no pickle
        bytes), or, for a cold snapshot, which has none, rebuilt from the
        present rows.
        """
        vectors = np.array(snap.vectors, dtype=np.float32)
        present = snap.present.copy()
        if snap.index is None:
            index = rebuild_index(self.embedding, vectors, present)
        else:
            index = snap.index.clone()
        return SegmentSnapshot(tid=snap.tid, index=index, vectors=vectors, present=present)

    def build_next_snapshot(
        self, records: list[DeltaRecord], new_tid: int, segment_size: int
    ) -> SegmentSnapshot:
        """Apply delta records for this segment to a copy of the snapshot.

        This is the index-merge step: the current snapshot is copied
        (:meth:`hot_copy`), the deltas are folded in with one
        ``update_items`` and one ``delete_items``, and the result is returned
        for :meth:`install_snapshot` to switch to.  In an HNSW, the upserted
        offsets the index has never seen are built and the ones it holds are
        rewritten, each kind as one batch wired by the same candidate scan.
        The last record per offset decides: a delete followed by an upsert
        leaves the offset live.
        """
        with self._lock:  # pin one coherent snapshot to clone from
            current = self._current
        # A cold current is re-hydrated by the copy.  The merged segment is
        # published hot; the tier manager re-demotes it at the rebalance
        # that follows the vacuum pass if it is still cold by access heat.
        snap = self.hot_copy(current)
        snap.tid = new_tid
        upserts: dict[int, np.ndarray] = {}
        deletes: dict[int, None] = {}
        for record in records:
            offset = record.vid % segment_size
            if record.action == UPSERT:
                deletes.pop(offset, None)
                upserts[offset] = record.vector
                snap.vectors[offset] = record.vector
                snap.present[offset] = True
            elif record.action == DELETE:
                upserts.pop(offset, None)
                deletes[offset] = None
                snap.present[offset] = False
        if upserts:
            offs = list(upserts)
            snap.index.update_items(offs, np.stack([upserts[o] for o in offs]))
        if deletes:
            snap.index.delete_items(list(deletes))
        return snap


def rebuild_index(
    embedding: EmbeddingType, vectors: np.ndarray, present: np.ndarray
) -> VectorIndex:
    """Fresh per-segment index over the present rows (tier promotion path).

    Every row is new to the index, so an HNSW builds them in one pass.
    """
    index = create_index(
        embedding.index, embedding.dimension, embedding.metric, dict(embedding.index_params)
    )
    offsets = np.flatnonzero(present)
    if offsets.size:
        index.update_items(offsets.tolist(), vectors[offsets])
    return index


def _empty_like(segment: EmbeddingSegment, tid: int) -> SegmentSnapshot:
    emb = segment.embedding
    return SegmentSnapshot(
        tid=tid,
        index=create_index(emb.index, emb.dimension, emb.metric, dict(emb.index_params)),
        vectors=np.zeros((segment.capacity, emb.dimension), dtype=np.float32),
        present=np.zeros(segment.capacity, dtype=bool),
    )
