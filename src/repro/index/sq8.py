"""SQ8-Flat: scalar-quantized brute force, the memory-saving index option.

A second "quantization-based index" (paper Sec. 4.4) behind the same
interface: vectors are stored as uint8 codes with per-dimension min/max
scaling (4x smaller than float32).  Exact ordering is approximated by
quantization, so recall is slightly below the FLAT index while memory
drops 4x — the trade-off the ablation bench shows.

SQ8 is FLAT over codes: :class:`SQ8FlatIndex` is a
:class:`~repro.index.bruteforce.BruteForceIndex` whose table rows are
uint8 codes, so the table, replace/delete and both searches are
inherited and only the row format is defined here.  Distance math routes
through :class:`~repro.index.pq.PQKernel` over the affine degenerate
codebook (``dim`` subspaces of width one, centroids ``lo[j] + scale[j]·c``):
SQ8 and PQ share one quantized-kernel interface, and scans run ADC over
the codes instead of decoding a float scratch matrix first.
"""

from __future__ import annotations

import numpy as np

from ..types import Metric, normalize
from .bruteforce import BruteForceIndex
from .pq import PQCodebook, PQKernel

__all__ = ["SQ8FlatIndex"]


class SQ8FlatIndex(BruteForceIndex):
    """Brute force over 8-bit scalar-quantized codes."""

    _ROW_DTYPE = np.uint8

    #: Affine codebook; the per-dimension range is fixed by the first batch.
    _codebook: PQCodebook | None = None

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        if self.metric is Metric.COSINE:
            # The ADC kernel's COSINE contract: rows are prenormalized
            # before encoding (cosine is scale-invariant, so this loses
            # nothing and the codes directly encode unit rows).
            vectors = normalize(vectors)
        if self._codebook is None:
            lo = vectors.min(axis=0)
            span = np.maximum(vectors.max(axis=0) - lo, 1e-6)
            self._codebook = PQCodebook.affine(
                lo.astype(np.float32), (span / 255.0).astype(np.float32)
            )
            self._bind()
        return self._codebook.encode(vectors)

    def _put(self, row: int, value: np.ndarray) -> None:
        self._vectors[row] = value  # the kernel reads the table in place

    def _bind(self) -> None:
        # An ADC kernel is a view of the code table (no per-row cache), so
        # rebinding is construction; there is nothing to bind before the
        # first batch trains the codebook, and an empty table is never scanned.
        if self._codebook is not None:
            self._kernel = PQKernel(self._codebook, self._vectors, self.metric)

    def get_embedding(self, external_id: int) -> np.ndarray:
        """Returns the *decoded* (quantized) vector, as a real SQ index would."""
        return self._codebook.decode(super().get_embedding(external_id))[0]

    @property
    def memory_bytes(self) -> int:
        """Bytes of the live codes (table slack excluded)."""
        return len(self._ids) * self.dim
