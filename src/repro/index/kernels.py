"""Metric-specialized distance kernels shared by every search path.

Every hot loop in the repo — HNSW hops, brute-force segment scans, delta
overlays, IVF probes, SQ8 decode-and-scan, the serving micro-batcher — bottoms
out in the same computation: distances from one or more queries to rows of a
float32 matrix.  Before this module each call site recomputed per-query norms
on *every* hop and allocated a ``diff`` matrix per L2 call.  A
:class:`DistanceKernel` is instead bound once to a matrix and precomputes an
*augmented* row matrix holding everything a distance evaluation needs:

- **L2** — augmented rows ``[v, |v|²]`` and augmented query ``[-2q, 1]``, so
  ``aug[rows] @ aug_q = |v|² - 2·v·q`` — the squared distance shifted by the
  per-search constant ``q·q`` — in **one gather + one matvec** with no diff
  allocation.  True distances add ``q·q`` back and clamp at zero against
  floating-point cancellation.
- **COSINE** — augmented rows ``[v/|v|, 0]`` (zero rows stay zero) and query
  ``[-q/|q|, 0]``, reducing cosine distance to IP on prenormalized rows:
  the matvec yields ``-cos`` and the true distance is ``1 + rank``.
- **IP** — augmented rows ``[v, 0]``, query ``[-q, 0]``; true ``1 + rank``.

The shifted matvec output is a *rank distance*: an order-preserving surrogate
(the shift is constant per query) that graph traversal compares directly,
converting to true distances only when materializing results.  Per-query
state (``q·q``, the normalized/augmented query) is computed **once** per
search in a :class:`QueryContext` instead of once per hop, and the context
carries the per-search distance/hop counters so telemetry attribution never
reads the shared cumulative :class:`~repro.index.interface.IndexStats`
counters (which concurrent searches would misattribute).

Two binding modes:

- **static** (:meth:`DistanceKernel.for_matrix`) — caches computed for every
  row up front; used for immutable matrices (segment snapshots, decoded SQ8
  scratch, overlay stacks).  A static kernel that serves a fused multi-query
  scan also keeps a *column copy* ``(d+1, n)`` of its augmented rows, built
  on the first :meth:`DistanceKernel.distances_multi_prefix`: the
  ``(Q, d+1) @ (d+1, n)`` product then reads a contiguous operand, which
  BLAS runs several times faster than the transposed row matrix.
- **incremental** (``precompute=False``) — caches allocated but filled row by
  row via :meth:`set_row` as the owner inserts; used by the mutable HNSW /
  brute-force tables.  :meth:`attach` rebinds after the owner reallocates its
  matrix on growth.

Numerical note: the shifted-matvec L2 form differs from a diff-based kernel
by cancellation on the order of ``eps · (|q|² + |v|²)`` — well inside 1e-4
*relative* tolerance at any scale, which is what the equivalence suite and
the kernel bench assert against :func:`repro.types.batch_distances`.
"""

from __future__ import annotations

import numpy as np

from ..errors import VectorSearchError
from ..types import Metric

__all__ = ["DistanceKernel", "MultiQueryContext", "QueryContext"]


class QueryContext:
    """Per-search query state: precomputed vectors/scalars + counters.

    Created once per search via :meth:`DistanceKernel.query`; every kernel
    call for the search threads through it, so ``q·q`` / query normalization
    / the augmented query are computed exactly once instead of per hop, and
    ``num_distances`` / ``num_hops`` attribute this search's work without
    touching shared cumulative counters.
    """

    __slots__ = ("query", "q_sq", "unit", "aug_query", "num_distances", "num_hops")

    def __init__(self, query: np.ndarray, q_sq: float, unit: np.ndarray,
                 aug_query: np.ndarray):
        self.query = query  # float32, contiguous
        self.q_sq = q_sq  # q·q (the L2 rank→true shift)
        self.unit = unit  # normalized query (COSINE); == query otherwise
        self.aug_query = aug_query  # (d+1,) float32, see module docstring
        self.num_distances = 0
        self.num_hops = 0

    @classmethod
    def build(cls, metric: Metric, query: np.ndarray) -> "QueryContext":
        """The context of ``query`` under ``metric``.

        It depends on nothing else, so one context serves every kernel of
        that metric and dimension.
        """
        query = np.ascontiguousarray(query, dtype=np.float32).reshape(-1)
        dim = query.shape[0]
        aug_query = np.zeros(dim + 1, dtype=np.float32)
        if metric is Metric.L2:
            # ×(−2) is exact in binary floating point, so the augmented
            # matvec equals |v|² − 2·(v·q) with no extra rounding.
            aug_query[:dim] = query
            aug_query[:dim] *= -2.0
            aug_query[dim] = 1.0
            return cls(query, float(query @ query), query, aug_query)
        if metric is Metric.COSINE:
            norm = float(np.sqrt(query @ query))
            unit = query if norm == 0.0 else query / norm
            aug_query[:dim] = unit
            aug_query[:dim] *= -1.0
            return cls(query, 0.0, unit, aug_query)
        aug_query[:dim] = query
        aug_query[:dim] *= -1.0
        return cls(query, 0.0, query, aug_query)


class MultiQueryContext:
    """Stacked per-query contexts for the ``(Q, n)`` batch-scan kernels.

    Each row's context comes from the scalar path a solo search uses (not a
    row-wise einsum), so its ``q_sq`` / augmented query are bit-identical to
    the per-query values: a batch scan then differs from Q solo scans only
    by the matmul's summation order.
    """

    __slots__ = ("queries", "aug_queries", "q_sq", "contexts")

    def __init__(self, queries: np.ndarray, contexts: list[QueryContext]):
        self.queries = queries  # (Q, d) float32
        self.contexts = contexts  # one QueryContext per row
        # (Q, d+1) stacked ctx.aug_query rows
        if contexts:
            self.aug_queries = np.stack([ctx.aug_query for ctx in contexts])
        else:
            self.aug_queries = np.zeros((0, queries.shape[1] + 1), dtype=np.float32)
        # (Q,) rank→true shifts; each ctx.q_sq is a float32 product, so the
        # float32 array is exact and the shift is added as to_true adds it.
        self.q_sq = np.asarray([ctx.q_sq for ctx in contexts], dtype=np.float32)

    @classmethod
    def build(cls, metric: Metric, queries: np.ndarray) -> "MultiQueryContext":
        """Stacked float contexts for a (Q, d) query matrix.

        Like its rows, the stack depends only on the metric, so one batch
        builds it once and hands it to every segment kernel it scans.
        """
        queries = _query_matrix(queries)
        return cls(queries, [QueryContext.build(metric, row) for row in queries])


def _query_matrix(queries: np.ndarray) -> np.ndarray:
    queries = np.ascontiguousarray(queries, dtype=np.float32)
    if queries.ndim != 2:
        raise VectorSearchError("queries() expects a (Q, d) matrix")
    return queries


class DistanceKernel:
    """A metric-specialized distance kernel bound to one vector matrix."""

    __slots__ = ("metric", "dim", "_vectors", "_aug", "_cols")

    def __init__(self, metric: Metric, vectors: np.ndarray, precompute: bool = True):
        if not isinstance(metric, Metric):
            raise VectorSearchError(f"unsupported metric: {metric}")
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise VectorSearchError("DistanceKernel expects a 2-d vector matrix")
        self.metric = metric
        self.dim = int(vectors.shape[1])
        self._vectors = vectors
        n = vectors.shape[0]
        self._aug = np.zeros((n, self.dim + 1), dtype=np.float32)
        self._cols = None  # lazy column copy of _aug, see _columns()
        if precompute and n:
            self.set_rows(slice(0, n), vectors[:n])

    # ------------------------------------------------------------- binding
    @classmethod
    def for_matrix(cls, vectors: np.ndarray, metric: Metric) -> "DistanceKernel":
        """Bind to an immutable matrix, precomputing caches for every row."""
        return cls(metric, vectors, precompute=True)

    def attach(self, vectors: np.ndarray, copy_rows: int) -> None:
        """Rebind after the owner reallocated its matrix (capacity growth).

        Cache entries for the first ``copy_rows`` rows are preserved; the
        owner fills later rows via :meth:`set_row` as it inserts them.
        """
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        aug = np.zeros((vectors.shape[0], self.dim + 1), dtype=np.float32)
        aug[:copy_rows] = self._aug[:copy_rows]
        self._aug = aug
        self._cols = None
        self._vectors = vectors

    def set_row(self, row: int, vector: np.ndarray) -> None:
        """Refresh caches after the owner wrote ``vector`` at ``row``.

        Delegates to :meth:`set_rows` so an incrementally built cache is
        bit-identical to one rebuilt in bulk (e.g. after save/load) — the
        row reductions must share one summation order or near-zero L2
        distances drift by an ulp of ``|v|²``.
        """
        vector = np.ascontiguousarray(vector, dtype=np.float32).reshape(1, -1)
        self.set_rows(slice(row, row + 1), vector)

    def set_rows(self, rows, vectors: np.ndarray) -> None:
        """Vectorized :meth:`set_row` for bulk loads and matrix extension."""
        metric = self.metric
        if metric is Metric.L2:
            self._aug[rows, : self.dim] = vectors
            self._aug[rows, self.dim] = np.einsum("ij,ij->i", vectors, vectors)
        elif metric is Metric.COSINE:
            norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
            norms[norms == 0.0] = 1.0
            self._aug[rows, : self.dim] = vectors / norms[:, None]
        else:
            self._aug[rows, : self.dim] = vectors
        self._cols = None

    def _columns(self) -> np.ndarray:
        """The ``(d+1, n)`` contiguous column copy of the augmented rows.

        Built on first use and kept: one more ``(d+1) × n`` float32 per
        kernel that served a fused scan.  :meth:`set_rows` and
        :meth:`attach` drop it, so a kernel whose rows changed rebuilds it
        from the current rows.  Concurrent first calls on an immutable
        kernel both build an equal copy and one wins the write, the same
        benign race as ``SegmentSnapshot.kernel``; a mutable kernel's owner
        already excludes reads while it writes rows.
        """
        cols = self._cols
        if cols is None:
            cols = np.ascontiguousarray(self._aug.T)
            self._cols = cols
        return cols

    # ------------------------------------------------------------- queries
    def query(self, query: np.ndarray) -> QueryContext:
        """Build the per-search context: norms/augmentation computed once."""
        return QueryContext.build(self.metric, query)

    def queries(self, queries: np.ndarray) -> MultiQueryContext:
        """Stacked :meth:`query` contexts for a (Q, d) matrix (fused paths)."""
        queries = _query_matrix(queries)
        return MultiQueryContext(queries, [self.query(row) for row in queries])

    # ------------------------------------------------------ rank distances
    def rank(self, ctx: QueryContext, rows) -> np.ndarray:
        """Order-preserving rank distances to ``rows``: one gather + matvec."""
        block = self._aug.take(rows, axis=0)
        ctx.num_distances += block.shape[0]
        return block @ ctx.aug_query

    def to_true(self, ctx: QueryContext, rank_values) -> np.ndarray:
        """Convert rank distances back to true distances (vectorized)."""
        out = np.asarray(rank_values, dtype=np.float32)
        if out is rank_values:
            out = out.copy()
        if self.metric is Metric.L2:
            out += ctx.q_sq
            np.maximum(out, 0.0, out=out)
        else:
            out += 1.0
        return out

    # ------------------------------------------------------ true distances
    def distances(self, ctx: QueryContext, rows) -> np.ndarray:
        """True distances from the context's query to ``rows``."""
        return self.to_true(ctx, self.rank(ctx, rows))

    def distances_prefix(self, ctx: QueryContext, n: int) -> np.ndarray:
        """True distances to rows ``[0, n)`` without a gather (dense scans)."""
        ctx.num_distances += n
        return self.to_true(ctx, self._aug[:n] @ ctx.aug_query)

    def distances_multi(self, mctx: MultiQueryContext, rows) -> np.ndarray:
        """Fused ``(Q, len(rows))`` true-distance matrix: one matmul for Q
        queries over the gathered ``rows`` (equal to per-query
        :meth:`distances` up to summation order).  For a few rows of a
        larger matrix; a dense range is :meth:`distances_multi_prefix`."""
        return self._multi_from_columns(mctx, self._aug[rows].T)

    def distances_multi_prefix(self, mctx: MultiQueryContext, n: int) -> np.ndarray:
        """Fused ``(Q, n)`` true distances over rows ``[0, n)``, no gather:
        one contiguous product with the first ``n`` columns of the lazy
        column copy (:meth:`_columns`)."""
        return self._multi_from_columns(mctx, self._columns()[:, :n])

    def _multi_from_columns(self, mctx: MultiQueryContext, columns: np.ndarray) -> np.ndarray:
        count = columns.shape[1]
        for ctx in mctx.contexts:
            ctx.num_distances += count
        out = mctx.aug_queries @ columns
        if self.metric is Metric.L2:
            out += mctx.q_sq[:, None]
            np.maximum(out, 0.0, out=out)
        else:
            out += 1.0
        return out

    def pairwise(self, rows, cols=None) -> np.ndarray:
        """True distances between stored rows (HNSW neighbour selection and
        graph build): ``(len(rows), len(cols))``, square over ``rows`` when
        ``cols`` is omitted.  Either may be an index array or a slice (a
        slice is read in place, no gather).  COSINE rows are already
        prenormalized in the cache, so no per-call norm handling is needed.
        Besides a gathered ``cols``, the product is the only full-size
        temporary."""
        aug = self._aug[rows]
        other = aug if cols is None else self._aug[cols]
        dim = self.dim
        out = aug[:, :dim] @ other[:, :dim].T
        if self.metric is Metric.L2:
            out *= -2.0
            out += other[:, dim]
            out += aug[:, dim, None]
            np.maximum(out, 0.0, out=out)
            return out
        np.subtract(1.0, out, out=out)
        return out

    def cross(self, queries: np.ndarray, n: int | None = None) -> np.ndarray:
        """``(Q, n)`` true distances for a query *matrix*, fully vectorized.

        Unlike :meth:`queries` + :meth:`distances_multi` this builds no
        per-query contexts (no Python loop over Q), so it suits bulk
        matrix-vs-matrix work like k-means assignment where Q is large and
        nobody needs per-query counters.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        if queries.ndim != 2:
            raise VectorSearchError("cross() expects a (Q, d) matrix")
        stop = self._aug.shape[0] if n is None else n
        aug = self._aug[:stop]
        metric = self.metric
        if metric is Metric.L2:
            out = -2.0 * (queries @ aug[:, : self.dim].T)
            out += aug[:, self.dim][None, :]
            out += np.einsum("ij,ij->i", queries, queries)[:, None]
            np.maximum(out, 0.0, out=out)
            return out
        if metric is Metric.COSINE:
            norms = np.sqrt(np.einsum("ij,ij->i", queries, queries))
            norms[norms == 0.0] = 1.0
            units = queries / norms[:, None]
            return 1.0 - units @ aug[:, : self.dim].T
        return 1.0 - queries @ aug[:, : self.dim].T
