"""The embedding service module (paper Sec. 4.2–4.3).

TigerVector manages vector storage separately from the graph through an
*embedding service*.  :class:`EmbeddingStore` owns everything for one
``(vertex_type, embedding_attribute)`` pair — embedding segments, the
in-memory delta store, flushed delta files — and serves snapshot-consistent
per-segment searches that combine the index snapshot with a brute-force
overlay of unmerged deltas.  :class:`EmbeddingService` is the registry of
stores and the commit hook installed into the :class:`~repro.graph.storage.
GraphStore`, which is what makes mixed graph/vector transactions atomic.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

import numpy as np

from ..analysis.hooks import schedule_point
from ..errors import UnknownTypeError, VectorSearchError
from ..graph.schema import GraphSchema
from ..index.bitmap import Bitmap
from ..index.kernels import DistanceKernel, MultiQueryContext
from .delta import DELETE, UPSERT, DeltaFile, DeltaRecord, DeltaStore
from .embedding import EmbeddingType
from .segment import EmbeddingSegment, SegmentSnapshot

__all__ = ["EmbeddingService", "EmbeddingStore", "SegmentSearchOutput"]

#: One HNSW traversal at a time, process-wide.  A traversal is a Python loop
#: that holds the GIL, so two of them never overlap anyway; letting several
#: threads interleave them only adds GIL hand-offs, and with more searching
#: threads than CPUs those hand-offs take most of the time (DESIGN §9.6).
_TRAVERSAL = threading.Lock()


class SegmentSearchOutput:
    """Local top-k from one segment: parallel (offset, distance) lists."""

    __slots__ = ("seg_no", "offsets", "distances", "used_bruteforce")

    def __init__(self, seg_no: int, offsets: list[int], distances: list[float], used_bruteforce: bool):
        self.seg_no = seg_no
        self.offsets = offsets
        self.distances = distances
        self.used_bruteforce = used_bruteforce

    def vid_pairs(self, segment_size: int) -> Iterable[tuple[float, int]]:
        """``(distance, vid)`` pairs over global vids (seg_no * segment_size + offset)."""
        base = self.seg_no * segment_size
        return zip(self.distances, [base + offset for offset in self.offsets])


class EmbeddingStore:
    """All embedding segments plus delta machinery for one vector attribute."""

    def __init__(
        self,
        vertex_type: str,
        embedding: EmbeddingType,
        segment_size: int,
        bf_threshold: int | None = None,
    ):
        self.vertex_type = vertex_type
        self.embedding = embedding
        self.segment_size = segment_size
        #: Below this many valid points a segment search flips to brute force
        #: (Sec. 5.1's first optimization).
        self.bf_threshold = bf_threshold if bf_threshold is not None else max(64, segment_size // 16)
        self.delta_store = DeltaStore()
        self.delta_files: list[DeltaFile] = []
        #: Delta files already folded into index snapshots but still needed
        #: by readers older than that merge; each entry is
        #: ``(release_tid, file)`` — droppable once every live snapshot's
        #: TID reaches ``release_tid`` (paper Sec. 4.3: old snapshots and
        #: delta files are deleted only after the new snapshot is visible to
        #: all running transactions).
        self.retired_delta_files: list[tuple[int, DeltaFile]] = []
        self._segments: list[EmbeddingSegment] = []
        self._lock = threading.Lock()
        #: Chaos-testing gate (repro.faults): called with the segment number
        #: at the top of every search so injected per-segment exceptions
        #: exercise callers' retry/failover paths.  None in production.
        self.fault_hook = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]  # locks are not picklable; recreate on load
        state["fault_hook"] = None  # injector closures don't survive pickling
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------ segments
    def segment(self, seg_no: int) -> EmbeddingSegment:
        with self._lock:
            while len(self._segments) <= seg_no:
                self._segments.append(
                    EmbeddingSegment(self.embedding, len(self._segments), self.segment_size)
                )
            return self._segments[seg_no]

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def segments(self) -> list[EmbeddingSegment]:
        with self._lock:
            return list(self._segments)

    def _ensure_segments_for(self, vids: Iterable[int]) -> None:
        max_vid = max(vids, default=-1)
        if max_vid >= 0:
            self.segment(max_vid // self.segment_size)

    # -------------------------------------------------------------- deltas
    def append_deltas(self, records: list[DeltaRecord]) -> None:
        schedule_point("store.delta.append")
        self._ensure_segments_for(r.vid for r in records)
        self.delta_store.append(records)

    def overlay_records(self, seg_no: int, low_tid: int, high_tid: int) -> list[DeltaRecord]:
        """Deltas for one segment with ``low_tid < tid <= high_tid``.

        Spans both flushed delta files and the in-memory store, in TID order,
        so queries see every committed-but-unmerged update.
        """
        lo = seg_no * self.segment_size
        hi = lo + self.segment_size
        out: list[DeltaRecord] = []
        files = [f for _, f in self.retired_delta_files] + self.delta_files
        for dfile in files:
            if dfile.to_tid <= low_tid or dfile.from_tid >= high_tid:
                continue
            out.extend(
                r for r in dfile.records if low_tid < r.tid <= high_tid and lo <= r.vid < hi
            )
        out.extend(
            r
            for r in self.delta_store.records_between(low_tid, high_tid)
            if lo <= r.vid < hi
        )
        return out

    def pending_delta_count(self) -> int:
        return len(self.delta_store) + sum(len(f) for f in self.delta_files)

    def watermark(self) -> tuple[int, int, int, int]:
        """Version watermark for snapshot-keyed result caching (repro.serve).

        The tuple changes whenever anything that a *fresh* snapshot of this
        store could read has changed:

        - ``len(segments)`` and ``max(segment snapshot TIDs)`` move on
          segment growth, bulk load, and index merge;
        - ``delta_store.flushed_tid`` moves on every delta-merge cut (it is
          monotone nondecreasing, so the tuple never repeats across a cut
          even though ``max_tid`` resets to 0);
        - ``delta_store.max_tid`` moves on every commit that touches this
          store.

        Two equal watermarks therefore bracket a window with no store-
        affecting commit or vacuum, and MVCC guarantees any two snapshots
        taken in that window read identical state.  Known (documented)
        exception: ``bulk_load`` replaying the *same* TID mutates segment
        snapshots in place without moving the watermark — that path is the
        offline ingest fast path, never used on a serving store.
        """
        schedule_point("store.watermark.read")
        segs = self.segments()
        return (
            len(segs),
            max((seg.snapshot_tid for seg in segs), default=0),
            self.delta_store.flushed_tid,
            self.delta_store.max_tid,
        )

    @staticmethod
    def watermark_tid(mark: tuple[int, int, int, int]) -> int:
        """Highest graph TID a :meth:`watermark` tuple has observed.

        Commits bump the watermark (via the embedding hook, inside the
        graph store's commit critical section) *before* the store publishes
        ``last_tid``, so a concurrently read watermark can run ahead of any
        snapshot pinned afterwards.  Comparing this ceiling against the
        snapshot's TID is how the serving cache detects that interleaving:
        ``watermark_tid(mark) > snapshot.tid`` means the key describes
        state the snapshot cannot see, and the result must not be cached
        under it.
        """
        return max(mark[1], mark[2], mark[3])

    # ------------------------------------------------------------ loading
    def bulk_load(self, vids: np.ndarray, vectors: np.ndarray, tid: int) -> None:
        """Partition a bulk batch by segment and build each directly."""
        vids = np.asarray(vids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.float32)
        if vids.size != vectors.shape[0]:
            raise VectorSearchError("vids and vectors length mismatch")
        seg_nos = vids // self.segment_size
        # Not np.unique: on NumPy 2 its first call imports numpy.ma (1.6 MB).
        for seg_no in sorted(set(seg_nos.tolist())):
            mask = seg_nos == seg_no
            self.segment(seg_no).bulk_load(vids[mask] % self.segment_size, vectors[mask], tid)

    # -------------------------------------------------------------- reads
    def get_embedding(self, vid: int, snapshot_tid: int | None = None) -> np.ndarray | None:
        """GetEmbedding with MVCC overlay: deltas beat the index snapshot."""
        seg_no, offset = divmod(vid, self.segment_size)
        if seg_no >= self.num_segments:
            return None
        segment = self.segment(seg_no)
        if snapshot_tid is None:
            # "Latest committed" must cover the index snapshot, flushed-but-
            # unmerged delta files, AND the in-memory store.
            snapshot_tid = max(
                segment.snapshot_tid,
                self.delta_store.flushed_tid,
                self.delta_store.max_tid,
            )
        snap = segment.snapshot_for(snapshot_tid)
        last = None
        for record in self.overlay_records(seg_no, snap.tid, snapshot_tid):
            if record.vid == vid:
                last = record
        if last is not None:
            return None if last.action == DELETE else np.array(last.vector, dtype=np.float32)
        return segment.get_vector(offset, snapshot_tid)

    def live_count(self) -> int:
        return sum(seg.live_count() for seg in self.segments())

    # ------------------------------------------------------------- search
    def _segment_view(
        self, seg_no: int, snapshot_tid: int, bitmap: Bitmap | None
    ) -> tuple["SegmentSnapshot", dict[int, DeltaRecord], np.ndarray]:
        """Resolve one segment's MVCC read view for a search.

        Returns ``(snap, overlay_last, allowed)`` where ``overlay_last`` is
        the last-writer-wins delta record per local offset in the overlay
        window and ``allowed`` is the validity mask (present in the index
        snapshot, passes the pre-filter, not superseded by a delta).  When
        there is no overlay and no filter, ``allowed`` *wraps*
        ``snap.present`` without copying (Sec. 5.1 reuse).
        """
        segment = self.segment(seg_no)
        while True:
            flushed = self.delta_store.flushed_tid
            snap = segment.snapshot_for(snapshot_tid)
            overlay = self.overlay_records(seg_no, snap.tid, snapshot_tid)
            # TOCTOU guards (both interleavings found by
            # repro.analysis.explore, vacuum-vs-search scenario):
            #
            # - An *index merge* landing between the two reads above installs
            #   a snapshot that covers this reader and may reclaim the delta
            #   files the overlay needed, leaving ``snap`` stale and
            #   ``overlay`` empty.  The merge flips the segment's applicable
            #   snapshot TID, so re-resolving detects it.
            # - A *delta merge* landing mid-overlay moves records from the
            #   in-memory store into a delta file after the file list was
            #   read but before the store was — invisible to the snapshot
            #   TID.  ``flushed_tid`` is bumped only after the file is
            #   published (two-phase cut), so an unchanged value brackets a
            #   consistent read.
            if (
                segment.snapshot_for(snapshot_tid).tid == snap.tid
                and self.delta_store.flushed_tid == flushed
            ):
                break
        # Last-writer-wins per offset within the overlay window.
        overlay_last: dict[int, DeltaRecord] = {}
        for record in overlay:
            overlay_last[record.vid % self.segment_size] = record

        if bitmap is None:
            allowed = snap.present  # wrap, don't copy (Sec. 5.1 reuse)
        else:
            allowed = bitmap.mask & snap.present
        if overlay_last:
            allowed = allowed.copy() if allowed is snap.present else allowed
            for offset in overlay_last:
                allowed[offset] = False
        return snap, overlay_last, allowed

    @staticmethod
    def _overlay_kernel(
        overlay_last: dict[int, DeltaRecord],
        fresh_offsets: list[int],
        metric,
    ) -> DistanceKernel:
        """Transient distance kernel over the overlay's upserted vectors.

        Built per search (overlays are small and change every commit); both
        the per-query and the fused paths construct it the same way so their
        overlay distances are computed by identical calls.
        """
        fresh_vectors = np.stack(
            [overlay_last[off].vector for off in fresh_offsets]
        ).astype(np.float32)
        return DistanceKernel.for_matrix(fresh_vectors, metric)

    def search_segment(
        self,
        seg_no: int,
        query: np.ndarray,
        k: int,
        snapshot_tid: int,
        ef: int | None = None,
        bitmap: Bitmap | None = None,
        bf_threshold: int | None = None,
    ) -> SegmentSearchOutput:
        """Top-k on one segment: index snapshot + delta overlay, filtered.

        ``bitmap`` is the pre-filter validity mask over local offsets (None
        means "wrap the vertex status structure", i.e. everything present).
        """
        fault_hook = self.fault_hook
        if fault_hook is not None:
            fault_hook(seg_no)  # may raise FaultInjectionError (chaos tests)
        snap, overlay_last, allowed = self._segment_view(seg_no, snapshot_tid, bitmap)
        threshold = self.bf_threshold if bf_threshold is None else bf_threshold
        metric = self.embedding.metric
        valid_count = int(np.count_nonzero(allowed))

        results: list[tuple[float, int]] = []
        used_bruteforce = False
        if valid_count > 0:
            if valid_count < threshold:
                used_bruteforce = True
                offsets = np.flatnonzero(allowed)
                kernel = snap.kernel(metric)
                dists = kernel.distances(kernel.query(query), offsets)
                top = min(k, offsets.size)
                part = np.argpartition(dists, top - 1)[:top]
                for i in part:
                    results.append((float(dists[i]), int(offsets[i])))
            else:
                # The validity mask goes down as the array it is (Sec. 5.1).
                with _TRAVERSAL:
                    found = snap.index.topk_search(query, k, ef=ef, filter_fn=allowed)
                results.extend((float(d), int(o)) for o, d in found)

        # Brute force over overlay upserts (still subject to the pre-filter).
        fresh_offsets = [
            off
            for off, record in overlay_last.items()
            if record.action == UPSERT and (bitmap is None or bitmap.is_valid(off))
        ]
        if fresh_offsets:
            okernel = self._overlay_kernel(overlay_last, fresh_offsets, metric)
            dists = okernel.distances_prefix(okernel.query(query), len(fresh_offsets))
            results.extend((float(d), int(o)) for d, o in zip(dists, fresh_offsets))

        results.sort()
        del results[k:]
        return SegmentSearchOutput(
            seg_no,
            offsets=[o for _, o in results],
            distances=[d for d, _ in results],
            used_bruteforce=used_bruteforce,
        )

    def scan_work(self, bitmap: Bitmap | None) -> int:
        """Multiply-adds of :meth:`search_segment` under pre-filter ``bitmap``
        if it is a NumPy scan, else 0: the price :func:`repro.core.action.topk`
        fans out by.

        The flip of :meth:`search_segment`: a pre-filter below
        ``bf_threshold`` is brute-forced — a kernel that releases the GIL —
        while anything else is an HNSW traversal, which holds it.  (An
        unfiltered segment with fewer live rows than the threshold is also
        scanned, but that scan is too small to be worth counting.)
        """
        rows = 0 if bitmap is None else bitmap.count()
        return rows * self.embedding.dimension if rows < self.bf_threshold else 0

    def fused_scan_columns(self, seg_no: int) -> int:
        """Columns :meth:`search_segment_batch` multiplies on ``seg_no``'s
        current snapshot, its overlay aside: the rows each query of a fused
        batch is scored against there.  :func:`repro.core.action.topk_batch`
        prices its fan-out with it."""
        count, hi = self.segment(seg_no).current_snapshot().extent()
        return _scan_width(count, hi) if count else 0

    def search_segment_batch(
        self,
        seg_no: int,
        queries: np.ndarray,
        k: int,
        snapshot_tid: int,
        context: MultiQueryContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused multi-query top-k on one segment (serving micro-batch path).

        All Q queries share one product with the segment's snapshot rows
        plus one pass over the delta overlay, instead of Q separate HNSW
        traversals.  Exact brute force, so every per-query result is at
        least as good as the per-query HNSW path.  Unfiltered only — the
        micro-batcher never fuses filtered requests.

        The snapshot product is read in place: the ``(Q, d+1)`` query block
        times columns ``[0, hi)`` of the kernel's column copy
        (:meth:`DistanceKernel.distances_multi_prefix`), ``hi`` one past the
        last allowed offset, with the columns of absent, tombstoned or
        overlay-superseded offsets set to ``+inf``.  Only when fewer than
        half of ``[0, hi)`` are allowed are the allowed rows gathered first
        (:meth:`DistanceKernel.distances_multi`); :func:`_scan_width` is
        that rule.

        Deliberately a second body beside :meth:`search_segment`, not that
        method's general case: one query routed through these array steps
        pays NumPy's per-call overhead on scans of a few dozen rows, which
        measurably slows every single-query workload (DESIGN §10.3).

        Returns ``(distances, offsets)``, both ``(Q, top)`` with ``top =
        min(k, candidates)``: row ``q`` is query ``q``'s local top-k sorted
        by (distance, offset), the order the per-query path's
        ``results.sort()`` gives.  ``context`` is the batch's
        :meth:`MultiQueryContext.build`; a caller scanning several segments
        builds it once and passes it to each.
        """
        fault_hook = self.fault_hook
        if fault_hook is not None:
            fault_hook(seg_no)  # may raise FaultInjectionError (chaos tests)
        queries = np.asarray(queries, dtype=np.float32)
        metric = self.embedding.metric
        snap, overlay_last, allowed = self._segment_view(seg_no, snapshot_tid, None)
        if context is None:
            context = MultiQueryContext.build(metric, queries)
        dist_blocks: list[np.ndarray] = []
        offset_blocks: list[np.ndarray] = []
        offsets = np.flatnonzero(allowed)
        if offsets.size:
            kernel = snap.kernel(metric)
            hi = int(offsets[-1]) + 1
            if _scan_width(offsets.size, hi) == hi:
                dists = kernel.distances_multi_prefix(context, hi)
                if offsets.size < hi:  # +inf on the columns of non-candidates
                    holes = np.zeros(hi, dtype=np.float32)
                    holes[~allowed[:hi]] = np.inf
                    dists += holes
                dist_blocks.append(dists)
                offset_blocks.append(np.arange(hi))
            else:
                dist_blocks.append(kernel.distances_multi(context, offsets))
                offset_blocks.append(offsets)
        fresh_offsets = [
            off for off, record in overlay_last.items() if record.action == UPSERT
        ]
        if fresh_offsets:
            okernel = self._overlay_kernel(overlay_last, fresh_offsets, metric)
            dist_blocks.append(
                okernel.distances_multi_prefix(context, len(fresh_offsets))
            )
            offset_blocks.append(np.asarray(fresh_offsets, dtype=np.int64))

        if not dist_blocks:
            shape = (queries.shape[0], 0)
            return np.empty(shape, dtype=np.float32), np.empty(shape, dtype=np.int64)
        dists = dist_blocks[0] if len(dist_blocks) == 1 else np.concatenate(dist_blocks, axis=1)
        cand_offsets = (
            offset_blocks[0] if len(offset_blocks) == 1 else np.concatenate(offset_blocks)
        )
        # The +inf columns rank last and ``top`` never reaches them.
        top = min(k, offsets.size + len(fresh_offsets))
        rows = np.arange(dists.shape[0])[:, None]
        if top < cand_offsets.size:
            part = np.argpartition(dists, top - 1, axis=1)[:, :top]
            dists = dists[rows, part]
            top_offsets = cand_offsets[part]
        else:
            top_offsets = np.broadcast_to(cand_offsets, dists.shape)
        order = np.lexsort((top_offsets, dists), axis=1)
        return dists[rows, order], top_offsets[rows, order]

    # --------------------------------------------------------------- stats
    def stats(self) -> dict:
        segs = self.segments()
        return {
            "vertex_type": self.vertex_type,
            "attribute": self.embedding.name,
            "segments": len(segs),
            "live_vectors": sum(s.live_count() for s in segs),
            "pending_deltas": self.pending_delta_count(),
            "index": [s.index.stats.snapshot() for s in segs],
        }


def _scan_width(count: int, hi: int) -> int:
    """Columns a fused segment scan multiplies when ``count`` offsets below
    ``hi`` are allowed: all of ``[0, hi)`` in place from half of them on,
    else only the ``count`` allowed rows, gathered.  A measured crossover
    (DESIGN §9.2): at 400 and at 4 096 rows the in-place product wins from
    half the columns allowed on, the gather at three eighths and below."""
    return hi if 2 * count >= hi else count


class EmbeddingService:
    """Registry of embedding stores + the commit hook wiring."""

    def __init__(self, schema: GraphSchema, segment_size: int, bf_threshold: int | None = None):
        self.schema = schema
        self.segment_size = segment_size
        self.bf_threshold = bf_threshold
        self._stores: dict[tuple[str, str], EmbeddingStore] = {}
        self._lock = threading.Lock()
        #: ``core/search.py::resolve_search``'s memo: the schema version it
        #: was filled at, and ``(attributes, dimension) -> targets``.
        self.resolved: tuple[int, dict] = (schema.version, {})

    def store(self, vertex_type: str, attr: str) -> EmbeddingStore:
        key = (vertex_type, attr)
        existing = self._stores.get(key)
        if existing is not None:
            return existing
        with self._lock:
            existing = self._stores.get(key)
            if existing is not None:
                return existing
            embedding = self.schema.vertex_type(vertex_type).embedding(attr)
            store = EmbeddingStore(
                vertex_type, embedding, self.segment_size, bf_threshold=self.bf_threshold
            )
            self._stores[key] = store
            return store

    def stores(self) -> Iterator[EmbeddingStore]:
        return iter(list(self._stores.values()))

    def attach_store(self, vertex_type: str, attr: str, store: EmbeddingStore) -> None:
        """Install a pre-built store (bench/recovery harness hook).

        The store must match the schema's embedding metadata for
        ``vertex_type.attr``; benchmarks use this to reuse an expensive
        HNSW build across runs instead of re-ingesting vectors.
        """
        embedding = self.schema.vertex_type(vertex_type).embedding(attr)
        if (
            embedding.dimension != store.embedding.dimension
            or embedding.metric != store.embedding.metric
        ):
            raise VectorSearchError(
                f"attached store for {vertex_type}.{attr} has dim/metric "
                f"({store.embedding.dimension}, {store.embedding.metric.value}) but the "
                f"schema declares ({embedding.dimension}, {embedding.metric.value})"
            )
        with self._lock:
            self._stores[(vertex_type, attr)] = store

    # ------------------------------------------------------------ the hook
    def on_commit(self, tid: int, embedding_ops: list[tuple]) -> None:
        """GraphStore commit hook: turn embedding ops into delta records.

        Runs inside the commit critical section with the transaction's TID,
        which is exactly how TigerVector makes graph+vector updates atomic.
        """
        grouped: dict[tuple[str, str], list[DeltaRecord]] = {}
        for action, vertex_type, vid, attr, vector in embedding_ops:
            if action == "delete" and (vertex_type, attr) not in self._stores:
                # Cascade deletes for attributes never populated: skip quietly.
                try:
                    self.schema.vertex_type(vertex_type).embedding(attr)
                except UnknownTypeError:
                    continue
            record = DeltaRecord(
                action=UPSERT if action == "upsert" else DELETE,
                vid=vid,
                tid=tid,
                vector=None if vector is None else np.asarray(vector, dtype=np.float32),
            )
            grouped.setdefault((vertex_type, attr), []).append(record)
        for (vertex_type, attr), records in grouped.items():
            self.store(vertex_type, attr).append_deltas(records)
