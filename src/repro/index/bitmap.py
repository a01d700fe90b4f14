"""Validity bitmaps used as vector-search filters (paper Sec. 5.1–5.2).

TigerVector passes a filter function backed by a bitmap into the vector
index: deleted and unauthorized vertices are invalid, and pre-filter queries
additionally restrict to predicate-qualified vertices.  A key optimization in
the paper is *reusing* the engine's global vertex-status structure for pure
vector searches instead of materializing a fresh bitmap; :class:`Bitmap`
supports that by wrapping an existing boolean mask without copying.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["Bitmap"]


class Bitmap:
    """A boolean validity mask over local segment offsets.

    ``Bitmap.wrap(mask)`` shares the underlying array (the status-structure
    reuse optimization); ``Bitmap.from_offsets`` materializes a new one (the
    pre-filter path).  Intersection composes the two.
    """

    __slots__ = ("mask", "_count")

    def __init__(self, mask: np.ndarray, copy: bool = True):
        arr = np.asarray(mask, dtype=bool)
        self.mask = arr.copy() if copy else arr
        self._count: int | None = None

    # ------------------------------------------------------------ builders
    @classmethod
    def wrap(cls, mask: np.ndarray) -> "Bitmap":
        """Wrap an existing status mask without copying (Sec. 5.1 reuse)."""
        return cls(mask, copy=False)

    @classmethod
    def full(cls, size: int) -> "Bitmap":
        return cls(np.ones(size, dtype=bool), copy=False)

    @classmethod
    def empty(cls, size: int) -> "Bitmap":
        return cls(np.zeros(size, dtype=bool), copy=False)

    @classmethod
    def from_offsets(cls, size: int, offsets: Iterable[int]) -> "Bitmap":
        mask = np.zeros(size, dtype=bool)
        for off in offsets:
            mask[off] = True
        return cls(mask, copy=False)

    # ------------------------------------------------------------ operations
    def intersect(self, other: "Bitmap") -> "Bitmap":
        return Bitmap(self.mask & other.mask, copy=False)

    def union(self, other: "Bitmap") -> "Bitmap":
        return Bitmap(self.mask | other.mask, copy=False)

    def count(self) -> int:
        """Number of valid entries (cached; drives the brute-force threshold)."""
        if self._count is None:
            self._count = int(np.count_nonzero(self.mask))
        return self._count

    def is_valid(self, offset: int) -> bool:
        return offset < self.mask.shape[0] and bool(self.mask[offset])

    def __len__(self) -> int:
        return int(self.mask.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Bitmap(valid={self.count()}/{len(self)})"
