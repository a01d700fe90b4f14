"""MVCC vector deltas (paper Sec. 4.3).

Committed vector updates accumulate as *vector deltas* in an in-memory delta
store before the vacuum folds them into index snapshots.  The delta schema
matches the paper exactly: **Action Flag** (Upsert/Delete), **ID**, **TID**,
and **Vector Value**.

Two consumers read deltas:

- the *delta merge* vacuum process flushes them into immutable
  in-memory :class:`DeltaFile` objects, and
- query execution overlays unmerged deltas on top of index-snapshot results
  (brute force over the delta vectors).
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..errors import ReproError

__all__ = ["DeltaFile", "DeltaRecord", "DeltaStore"]

UPSERT = "upsert"
DELETE = "delete"


@dataclass(frozen=True)
class DeltaRecord:
    """One committed vector mutation: (action, id, tid, value)."""

    action: str  # UPSERT or DELETE
    vid: int  # global vertex id (segment = vid // segment_size)
    tid: int
    vector: np.ndarray | None  # None for deletes

    def __post_init__(self) -> None:
        if self.action not in (UPSERT, DELETE):
            raise ReproError(f"invalid delta action '{self.action}'")
        if self.action == UPSERT and self.vector is None:
            raise ReproError("upsert delta requires a vector value")


class DeltaFile:
    """An immutable batch of deltas covering TIDs in ``(from_tid, to_tid]``.

    The delta merge process produces these; the index merge process consumes
    them.
    """

    def __init__(self, records: list[DeltaRecord], from_tid: int, to_tid: int):
        self.records = list(records)
        self.from_tid = from_tid
        self.to_tid = to_tid

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[DeltaRecord]:
        return iter(self.records)


class DeltaStore:
    """The in-memory delta store for one embedding attribute.

    Thread-safe append; records are kept in TID order.  The delta-merge
    step detaches a prefix into a :class:`DeltaFile` in two phases
    (:meth:`prepare_cut`, then :meth:`commit_cut`); ``records_between``
    serves query-time overlays.
    """

    def __init__(self):
        self._records: list[DeltaRecord] = []
        self._tids: list[int] = []
        self._lock = threading.Lock()
        self._flushed_tid = 0  # everything <= this has been cut to a file

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]  # locks are not picklable; recreate on load
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def append(self, records: Iterable[DeltaRecord]) -> None:
        with self._lock:
            for record in records:
                if self._tids and record.tid < self._tids[-1]:
                    raise ReproError("delta records must arrive in TID order")
                self._records.append(record)
                self._tids.append(record.tid)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def flushed_tid(self) -> int:
        return self._flushed_tid

    @property
    def max_tid(self) -> int:
        with self._lock:
            return self._tids[-1] if self._tids else 0

    def records_between(self, low_tid: int, high_tid: int) -> list[DeltaRecord]:
        """Records with ``low_tid < tid <= high_tid`` (query-time overlay)."""
        with self._lock:
            start = bisect.bisect_right(self._tids, low_tid)
            stop = bisect.bisect_right(self._tids, high_tid)
            return self._records[start:stop]

    def prepare_cut(self, up_to_tid: int) -> DeltaFile | None:
        """Phase one of a cut: copy records with
        ``flushed_tid < tid <= up_to_tid`` into a file, retire nothing.

        Returns ``None`` when there is nothing new to flush (an empty window
        still advances ``flushed_tid``).  The caller publishes the file,
        then calls :meth:`commit_cut` to retire the prefix.  In between, the
        records are visible twice — benign, because overlays apply
        last-write-wins per vid and both copies are identical.  Retiring
        before publishing would open a window where a concurrent overlay
        read finds the records in *neither* place (found by
        ``repro.analysis.explore``, vacuum-vs-search scenario).
        """
        with self._lock:
            if up_to_tid <= self._flushed_tid:
                return None
            stop = bisect.bisect_right(self._tids, up_to_tid)
            if stop == 0:
                self._flushed_tid = up_to_tid
                return None
            return DeltaFile(list(self._records[:stop]), self._flushed_tid, up_to_tid)

    def commit_cut(self, dfile: DeltaFile) -> None:
        """Phase two: retire the prefix captured by :meth:`prepare_cut`."""
        with self._lock:
            stop = bisect.bisect_right(self._tids, dfile.to_tid)
            self._records = self._records[stop:]
            self._tids = self._tids[stop:]
            self._flushed_tid = dfile.to_tid
