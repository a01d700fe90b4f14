"""Fixed-size vertex segments with MVCC version chains.

TigerGraph partitions each vertex type's vertices into fixed-size *segments*
(paper Sec. 2.1); segments are the unit of parallelism, distribution, and
vacuuming.  A vertex's global id (*vid*) encodes its segment: with segment
capacity ``C``, vid ``v`` lives in segment ``v // C`` at local offset
``v % C``.  Outgoing edges are stored in the source vertex's segment; a
reverse adjacency (key ``~etype``) is maintained automatically so patterns
can traverse edges in either direction.

MVCC layout
-----------
Each segment keeps a chain of immutable :class:`SegmentVersion` snapshots plus
a list of committed-but-unvacuumed :class:`DeltaOp` records ordered by TID.
A reader at snapshot TID ``S`` picks the newest version with
``base_tid <= S`` and overlays the deltas with ``version.base_tid < tid <= S``.
The vacuum (:meth:`Segment.vacuum`) folds deltas up to a TID into a fresh
version; old versions are garbage-collected once no live snapshot can see
them (:meth:`Segment.gc_versions`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..analysis.hooks import schedule_point
from ..errors import ReproError
from .schema import VertexType

__all__ = ["DeltaOp", "Segment", "SegmentVersion", "reverse_edge_key"]


def reverse_edge_key(edge_type: str) -> str:
    """Adjacency key under which reverse half-edges of ``edge_type`` are stored."""
    return "~" + edge_type


@dataclass
class DeltaOp:
    """One committed, not-yet-vacuumed mutation against a segment.

    ``kind`` is one of ``upsert``, ``delete``, ``add_edge``, ``del_edge``.
    """

    tid: int
    kind: str
    offset: int
    payload: Any = None  # upsert: dict attrs; add_edge/del_edge: (key, target_vid, attrs)


def _typed_array(col: list, size: int) -> np.ndarray | None:
    """``col`` as a bool / int64 / float64 / str array, or ``None``.

    ``None`` whenever an elementwise NumPy comparison on the array could answer
    differently from Python's comparison of the list's own values: a ``None``
    hole or mixed types (object dtype), ints beyond int64, or a NUL in a
    string (NumPy's fixed-width strings drop trailing NULs).
    """
    kinds = set(map(type, col))
    if len(col) != size or len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind is bool:
        return np.array(col, dtype=bool)
    if kind is float:
        return np.array(col, dtype=np.float64)
    if kind is int:
        try:
            return np.array(col, dtype=np.int64)
        except OverflowError:
            return None
    if kind is str and "\0" not in "".join(col):
        return np.array(col, dtype=np.str_)
    return None


class SegmentVersion:
    """An immutable columnar snapshot of a segment as of ``base_tid``."""

    __slots__ = ("base_tid", "size", "columns", "deleted", "adjacency", "_arrays")

    def __init__(
        self,
        base_tid: int,
        size: int,
        columns: dict[str, list],
        deleted: np.ndarray,
        adjacency: dict[str, list[list[tuple[int, dict | None]]]],
    ):
        self.base_tid = base_tid
        self.size = size
        self.columns = columns
        self.deleted = deleted
        self.adjacency = adjacency
        # name -> typed array (or None), built on first use.  Two readers may
        # race to fill an entry; both build the same array from the same
        # immutable list, so the last store wins harmlessly.
        self._arrays: dict[str, np.ndarray | None] = {}

    def column_array(self, name: str) -> np.ndarray | None:
        """Typed array of one attribute column (see :func:`_typed_array`), cached."""
        try:
            return self._arrays[name]
        except KeyError:
            col = self.columns.get(name)
            array = None if col is None else _typed_array(col, self.size)
            self._arrays[name] = array
            return array

    @classmethod
    def empty(cls, vertex_type: VertexType, capacity: int) -> "SegmentVersion":
        columns = {name: [] for name in vertex_type.attributes}
        return cls(
            base_tid=0,
            size=0,
            columns=columns,
            # Rows start "deleted" and only become live on their first
            # upsert, so allocation holes never read as live vertices.
            deleted=np.ones(capacity, dtype=bool),
            adjacency={},
        )


class Segment:
    """One vertex segment: a version chain plus pending deltas.

    Not thread-safe for concurrent writers; the :class:`GraphStore` serializes
    commits and vacuums under its commit lock.  Concurrent readers are safe
    because versions are immutable and the delta list is append-only.
    """

    def __init__(self, vertex_type: VertexType, seg_no: int, capacity: int):
        self.vertex_type = vertex_type
        self.seg_no = seg_no
        self.capacity = capacity
        self.versions: list[SegmentVersion] = [SegmentVersion.empty(vertex_type, capacity)]
        self.deltas: list[DeltaOp] = []  # ordered by tid
        self._delta_tids: list[int] = []
        # offset -> newest pending upsert/delete, so a commit can read one
        # row's latest state without overlaying the whole segment.
        self._row_ops: dict[int, DeltaOp] = {}

    # ------------------------------------------------------------- mutation
    def append_delta(self, op: DeltaOp) -> None:
        schedule_point("segment.delta.append")
        if self._delta_tids and op.tid < self._delta_tids[-1]:
            raise ReproError("segment deltas must be appended in TID order")
        self.deltas.append(op)
        self._delta_tids.append(op.tid)
        if op.kind in ("upsert", "delete"):
            self._row_ops[op.offset] = op

    @property
    def pending_delta_count(self) -> int:
        return len(self.deltas)

    # --------------------------------------------------------------- reads
    def version_for(self, snapshot_tid: int) -> SegmentVersion:
        """Newest version with ``base_tid <= snapshot_tid``."""
        chosen = self.versions[0]
        for version in self.versions:
            if version.base_tid <= snapshot_tid:
                chosen = version
            else:
                break
        return chosen

    def _deltas_between(self, low_tid: int, high_tid: int) -> Iterator[DeltaOp]:
        """Deltas with ``low_tid < tid <= high_tid`` in commit order."""
        start = bisect.bisect_right(self._delta_tids, low_tid)
        stop = bisect.bisect_right(self._delta_tids, high_tid)
        return iter(self.deltas[start:stop])

    def latest_row(self, offset: int) -> dict[str, Any] | None:
        """Attributes of the newest committed row at ``offset``; ``None`` if absent.

        An upsert delta carries the whole merged row, so the newest pending
        row op (or, without one, the newest version) decides alone.  Callers
        hold the store's commit lock and must not mutate the result (it may
        be a delta's own payload).
        """
        op = self._row_ops.get(offset)
        if op is not None:
            return op.payload if op.kind == "upsert" else None
        newest = self.versions[-1]
        if offset < newest.size and not newest.deleted[offset]:
            return {name: col[offset] for name, col in newest.columns.items()}
        return None

    def read_state(self, snapshot_tid: int) -> "SegmentState":
        """Materialize the overlay view for a snapshot.

        Cheap when few deltas are pending (the common case, since the vacuum
        runs continuously); the returned object shares the base version's
        columns and only copies rows touched by deltas.
        """
        base = self.version_for(snapshot_tid)
        state = SegmentState(self, base, snapshot_tid)
        for op in self._deltas_between(base.base_tid, snapshot_tid):
            state._apply(op)
        return state

    # -------------------------------------------------------------- vacuum
    def vacuum(self, up_to_tid: int) -> SegmentVersion | None:
        """Fold deltas with ``tid <= up_to_tid`` into a new base version.

        Returns the new version, or ``None`` when there was nothing to fold.
        The consumed deltas stay in place until :meth:`gc_versions` confirms
        no live snapshot still needs to overlay them onto an older base.
        """
        newest = self.versions[-1]
        pending = list(self._deltas_between(newest.base_tid, up_to_tid))
        if not pending:
            return None
        columns = {name: list(col) for name, col in newest.columns.items()}
        deleted = newest.deleted.copy()
        adjacency = {
            key: [list(edges) for edges in per_offset]
            for key, per_offset in newest.adjacency.items()
        }
        size = newest.size
        for op in pending:
            if op.kind == "upsert":
                size = max(size, op.offset + 1)
                for col in columns.values():
                    while len(col) < size:
                        col.append(None)
                for name, value in op.payload.items():
                    columns[name][op.offset] = value
                deleted[op.offset] = False
            elif op.kind == "delete":
                deleted[op.offset] = True
                for per_offset in adjacency.values():
                    if op.offset < len(per_offset):
                        per_offset[op.offset] = []
            elif op.kind == "add_edge":
                key, target, attrs = op.payload
                per_offset = adjacency.setdefault(key, [])
                while len(per_offset) <= op.offset:
                    per_offset.append([])
                per_offset[op.offset].append((target, attrs))
            elif op.kind == "del_edge":
                key, target, _ = op.payload
                per_offset = adjacency.get(key)
                if per_offset and op.offset < len(per_offset):
                    per_offset[op.offset] = [
                        (t, a) for (t, a) in per_offset[op.offset] if t != target
                    ]
            else:  # pragma: no cover - defensive
                raise ReproError(f"unknown delta op kind '{op.kind}'")
        new_version = SegmentVersion(
            base_tid=pending[-1].tid,
            size=size,
            columns=columns,
            deleted=deleted,
            adjacency=adjacency,
        )
        self.versions.append(new_version)
        return new_version

    def gc_versions(self, min_active_snapshot_tid: int) -> int:
        """Drop versions and consumed deltas no live snapshot can still read.

        A version is reclaimable when a newer version exists whose
        ``base_tid <= min_active_snapshot_tid`` (every snapshot will pick the
        newer one).  Returns the number of versions dropped.
        """
        keep_from = 0
        for i in range(len(self.versions) - 1):
            if self.versions[i + 1].base_tid <= min_active_snapshot_tid:
                keep_from = i + 1
        dropped = keep_from
        if keep_from:
            self.versions = self.versions[keep_from:]
        # Deltas folded into the oldest surviving version are unreachable.
        cutoff = self.versions[0].base_tid
        start = bisect.bisect_right(self._delta_tids, cutoff)
        if start:
            self.deltas = self.deltas[start:]
            self._delta_tids = self._delta_tids[start:]
            self._row_ops = {
                offset: op for offset, op in self._row_ops.items() if op.tid > cutoff
            }
        return dropped


class SegmentState:
    """A snapshot-consistent read view over one segment.

    Copy-on-write: attribute columns and adjacency lists are shared with the
    base version until a delta touches them.
    """

    def __init__(self, segment: Segment, base: SegmentVersion, snapshot_tid: int):
        self.segment = segment
        self.snapshot_tid = snapshot_tid
        self.size = base.size
        self._base = base
        self._columns = base.columns  # possibly replaced by a copy on write
        self._columns_owned = False
        self._deleted = base.deleted
        self._deleted_owned = False
        self._adjacency: dict[str, Any] = base.adjacency
        self._adjacency_owned = False
        self._touched_adj: set[str] = set()

    # -------------------------------------------------- delta application
    def _own_columns(self) -> None:
        if not self._columns_owned:
            self._columns = {name: list(col) for name, col in self._columns.items()}
            self._columns_owned = True

    def _own_deleted(self) -> None:
        if not self._deleted_owned:
            self._deleted = self._deleted.copy()
            self._deleted_owned = True

    def _own_adjacency(self, key: str) -> list[list[tuple[int, dict | None]]]:
        if not self._adjacency_owned:
            self._adjacency = dict(self._adjacency)
            self._adjacency_owned = True
        if key not in self._touched_adj:
            per_offset = [list(edges) for edges in self._adjacency.get(key, [])]
            self._adjacency[key] = per_offset
            self._touched_adj.add(key)
        return self._adjacency[key]

    def _apply(self, op: DeltaOp) -> None:
        if op.kind == "upsert":
            self._own_columns()
            self._own_deleted()
            self.size = max(self.size, op.offset + 1)
            for col in self._columns.values():
                while len(col) < self.size:
                    col.append(None)
            for name, value in op.payload.items():
                self._columns[name][op.offset] = value
            self._deleted[op.offset] = False
        elif op.kind == "delete":
            self._own_deleted()
            self._deleted[op.offset] = True
        elif op.kind == "add_edge":
            key, target, attrs = op.payload
            per_offset = self._own_adjacency(key)
            while len(per_offset) <= op.offset:
                per_offset.append([])
            per_offset[op.offset].append((target, attrs))
        elif op.kind == "del_edge":
            key, target, _ = op.payload
            per_offset = self._own_adjacency(key)
            if op.offset < len(per_offset):
                per_offset[op.offset] = [
                    (t, a) for (t, a) in per_offset[op.offset] if t != target
                ]

    # --------------------------------------------------------------- reads
    def exists(self, offset: int) -> bool:
        return offset < self.size and not self._deleted[offset]

    def get_attr(self, offset: int, name: str) -> Any:
        col = self._columns[name]
        return col[offset] if offset < len(col) else None

    def get_row(self, offset: int) -> dict[str, Any]:
        return {name: self.get_attr(offset, name) for name in self._columns}

    def neighbors(self, offset: int, key: str) -> list[tuple[int, dict | None]]:
        per_offset = self._adjacency.get(key, [])
        if offset >= len(per_offset):
            return []
        return per_offset[offset]

    def valid_mask(self) -> np.ndarray:
        """Boolean mask of live offsets, length = segment capacity.

        This is the per-segment *vertex status structure* that TigerVector
        reuses as a vector-search bitmap instead of allocating a new one
        (paper Sec. 5.1).
        """
        mask = np.zeros(self.segment.capacity, dtype=bool)
        if self.size:
            mask[: self.size] = ~self._deleted[: self.size]
        return mask

    def iter_live_offsets(self) -> Iterator[int]:
        deleted = self._deleted
        for offset in range(self.size):
            if not deleted[offset]:
                yield offset

    def column(self, name: str) -> list:
        return self._columns[name]

    def column_array(self, name: str) -> np.ndarray | None:
        """One attribute column as a typed array of length ``size``.

        ``None`` when the column does not exist or has no exact typed form
        (``None`` holes, mixed types, ints beyond int64, NUL in a string), so
        callers fall back to per-row reads.  Shared with every other reader
        of the base version while no delta touched the columns; rebuilt from
        the owned lists otherwise, because an overlaid state lives only as
        long as its snapshot.
        """
        if not self._columns_owned:
            return self._base.column_array(name)
        col = self._columns.get(name)
        return None if col is None else _typed_array(col, self.size)
