"""Product quantization: codebooks, ADC kernels, and the IVF_PQ index.

The kernel layer (:mod:`repro.index.kernels`) was built so new distance
representations drop in behind one contract.  This module adds the first
non-float representation: vectors are split into ``m`` subspaces, each
subspace is vector-quantized against a 256-entry codebook (one byte per
subspace), and distances are computed by **asymmetric distance computation
(ADC)** — a per-query ``(m, 256)`` lookup table built once per
:class:`~repro.index.kernels.QueryContext`, after which the distance to any
code is ``m`` table gathers and a sum, never touching float rows.

Distance semantics mirror the float kernels exactly:

- **L2** — ``LUT[j, c] = |q_j - C[j, c]|²``; the rank distance *is* the true
  squared distance to the reconstruction (``q_sq`` is folded into the table,
  so the context carries ``q_sq = 0`` and the inherited rank→true conversion
  degenerates to the clamp).
- **IP** — ``LUT[j, c] = -(q_j · C[j, c])``; true distance is ``1 + rank``.
- **COSINE** — rows are L2-normalized *before encoding* (mirroring the float
  kernel's prenormalized augmented rows) and the table is built from the
  normalized query, reducing cosine to IP on unit rows.

Because :class:`PQKernel` subclasses :class:`DistanceKernel` and preserves
the full contract — ``query``/``queries`` contexts, ``rank``,
``distances_multi`` for the serving micro-batcher, ``pairwise``/``cross``
for neighbour selection and k-means — every consumer (brute-force scans,
IVF probes, delta overlays, multi-query batch scans) runs over codes
without modification.

Scalar quantization is the degenerate case ``m == dim`` with affine
single-dimension codebooks (``lo[j] + scale[j]·c``), which is how
:class:`~repro.index.sq8.SQ8FlatIndex` shares this kernel instead of
decoding to a float scratch matrix.

:class:`IVFPQIndex` is :class:`~repro.index.ivf.IVFFlatIndex` with PQ codes
in the lists and an optional exact **rerank** phase (quantized candidate
generation with inflated k, then exact distances on raw rows), the
two-phase search the tiered storage layer exposes store-wide.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import VectorSearchError
from ..types import Metric, normalize
from .kernels import DistanceKernel, MultiQueryContext, QueryContext
from .ivf import IVFFlatIndex, kmeans

__all__ = [
    "IVFPQIndex",
    "PQCodebook",
    "PQCodes",
    "PQKernel",
    "PQQueryContext",
    "PQSearchConfig",
]

#: Codebook entries per subspace — one uint8 code.
CODEBOOK_SIZE = 256


def _prepare_rows(vectors: np.ndarray, metric: Metric) -> np.ndarray:
    """Rows as the kernel stores them: prenormalized for COSINE, else as-is."""
    vectors = np.asarray(vectors, dtype=np.float32)
    if metric is Metric.COSINE:
        return normalize(vectors)
    return vectors


class PQCodebook:
    """``m`` per-subspace codebooks of up to 256 centroids each.

    Subspaces are contiguous dimension ranges (``np.array_split`` of the
    axis, so ``dim % m != 0`` is allowed).  Centroid tables are always
    padded to 256 rows (repeating trained rows) so codes index without
    bounds checks; :meth:`encode` only ever emits trained codes.
    """

    __slots__ = ("dim", "m", "splits", "centroids", "_c_sq", "_affine", "_stacked")

    def __init__(self, dim: int, splits: list[tuple[int, int]],
                 centroids: list[np.ndarray], affine: tuple | None = None):
        self.dim = dim
        self.m = len(splits)
        self.splits = splits
        self.centroids = centroids  # m tables, each (256, sub_dim) float32
        #: per-centroid squared norms, (m, 256) — the constant L2 LUT term
        self._c_sq = np.stack(
            [np.einsum("ij,ij->i", c, c) for c in centroids]
        ).astype(np.float32)
        #: (lo, scale) when this is an affine (scalar-quantizer) codebook;
        #: enables the O(n·dim) encode/decode fast paths.
        self._affine = affine
        #: (m, 256, w) stack when all subspaces share width w — the LUT
        #: builder then runs one einsum instead of m Python-level matvecs
        #: (vital for the SQ8 case, where m == dim).
        widths = {stop - start for start, stop in splits}
        self._stacked = np.stack(centroids) if len(widths) == 1 else None

    # ------------------------------------------------------------- builders
    @classmethod
    def train(
        cls,
        vectors: np.ndarray,
        m: int,
        metric: Metric = Metric.L2,
        iterations: int = 8,
        seed: int = 17,
    ) -> "PQCodebook":
        """Seeded k-means codebook per subspace (COSINE rows prenormalized)."""
        vectors = _prepare_rows(vectors, metric)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise VectorSearchError("PQ training needs a non-empty 2-d matrix")
        dim = int(vectors.shape[1])
        if not 1 <= m <= dim:
            raise VectorSearchError(f"m must be in [1, dim]; got m={m}, dim={dim}")
        bounds = np.array_split(np.arange(dim), m)
        splits = [(int(b[0]), int(b[-1]) + 1) for b in bounds]
        centroids = []
        for j, (start, stop) in enumerate(splits):
            trained = kmeans(
                np.ascontiguousarray(vectors[:, start:stop]),
                CODEBOOK_SIZE,
                iterations=iterations,
                seed=seed + j,
            )
            centroids.append(_pad_table(trained))
        return cls(dim, splits, centroids)

    @classmethod
    def affine(cls, lo: np.ndarray, scale: np.ndarray) -> "PQCodebook":
        """Scalar-quantizer codebook: ``dim`` subspaces of width one with
        centroids ``lo[j] + scale[j]·c`` — SQ8 as degenerate PQ."""
        lo = np.asarray(lo, dtype=np.float32).reshape(-1)
        scale = np.asarray(scale, dtype=np.float32).reshape(-1)
        if lo.shape != scale.shape:
            raise VectorSearchError("lo and scale must have matching shapes")
        dim = lo.shape[0]
        levels = np.arange(CODEBOOK_SIZE, dtype=np.float32)
        centroids = [
            (lo[j] + scale[j] * levels).reshape(CODEBOOK_SIZE, 1) for j in range(dim)
        ]
        return cls(dim, [(j, j + 1) for j in range(dim)], centroids,
                   affine=(lo, scale))

    # ------------------------------------------------------------ transforms
    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Nearest-centroid codes, ``(n, m)`` uint8.

        Callers own metric preparation (:func:`_prepare_rows`) so encode is
        metric-agnostic nearest-centroid assignment.
        """
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        if vectors.shape[1] != self.dim:
            raise VectorSearchError(
                f"expected dimension {self.dim}, got {vectors.shape[1]}"
            )
        if self._affine is not None:
            lo, scale = self._affine
            quantized = np.clip((vectors - lo) / scale, 0, CODEBOOK_SIZE - 1)
            return np.round(quantized).astype(np.uint8)
        codes = np.empty((vectors.shape[0], self.m), dtype=np.uint8)
        for j, (start, stop) in enumerate(self.splits):
            sub = np.ascontiguousarray(vectors[:, start:stop])
            kernel = DistanceKernel.for_matrix(self.centroids[j], Metric.L2)
            codes[:, j] = np.argmin(kernel.cross(sub), axis=1).astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstructions, ``(n, dim)`` float32."""
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.ndim == 1:
            codes = codes.reshape(1, -1)
        if self._affine is not None:
            lo, scale = self._affine
            return codes.astype(np.float32) * scale + lo
        out = np.empty((codes.shape[0], self.dim), dtype=np.float32)
        for j, (start, stop) in enumerate(self.splits):
            out[:, start:stop] = self.centroids[j][codes[:, j]]
        return out

    def lut(self, query: np.ndarray, metric: Metric) -> np.ndarray:
        """The per-query ADC table, ``(m, 256)`` float32 (see module doc)."""
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        if query.shape[0] != self.dim:
            raise VectorSearchError(
                f"expected dimension {self.dim}, got {query.shape[0]}"
            )
        if self._stacked is not None:
            subs = query.reshape(self.m, -1)
            dot = np.einsum("mkw,mw->mk", self._stacked, subs)
            if metric is Metric.L2:
                table = self._c_sq - 2.0 * dot
                table += np.einsum("mw,mw->m", subs, subs)[:, None]
                np.maximum(table, 0.0, out=table)
                return table.astype(np.float32, copy=False)
            return (-dot).astype(np.float32, copy=False)
        table = np.empty((self.m, CODEBOOK_SIZE), dtype=np.float32)
        for j, (start, stop) in enumerate(self.splits):
            sub = query[start:stop]
            dot = self.centroids[j] @ sub
            if metric is Metric.L2:
                table[j] = self._c_sq[j] - 2.0 * dot
                table[j] += float(sub @ sub)
            else:
                table[j] = -dot
        if metric is Metric.L2:
            np.maximum(table, 0.0, out=table)
        return table

    @property
    def memory_bytes(self) -> int:
        return sum(int(c.nbytes) for c in self.centroids)


def _pad_table(trained: np.ndarray) -> np.ndarray:
    """Pad a trained (k, sub_dim) table to 256 rows by repeating rows."""
    k = trained.shape[0]
    if k == CODEBOOK_SIZE:
        return np.ascontiguousarray(trained, dtype=np.float32)
    reps = -(-CODEBOOK_SIZE // k)  # ceil division
    return np.ascontiguousarray(
        np.tile(trained, (reps, 1))[:CODEBOOK_SIZE], dtype=np.float32
    )


class PQCodes:
    """One matrix of PQ codes bound to its codebook (a segment's cold rows)."""

    __slots__ = ("codebook", "codes")

    def __init__(self, codebook: PQCodebook, codes: np.ndarray):
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        if codes.ndim != 2 or codes.shape[1] != codebook.m:
            raise VectorSearchError("codes must be (n, m) uint8")
        self.codebook = codebook
        self.codes = codes

    @classmethod
    def from_vectors(
        cls, codebook: PQCodebook, vectors: np.ndarray, metric: Metric
    ) -> "PQCodes":
        return cls(codebook, codebook.encode(_prepare_rows(vectors, metric)))

    def kernel(self, metric: Metric) -> "PQKernel":
        return PQKernel(self.codebook, self.codes, metric)

    def decode(self) -> np.ndarray:
        return self.codebook.decode(self.codes)

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    @property
    def memory_bytes(self) -> int:
        """Resident bytes: codes plus the (shared) codebook tables."""
        return int(self.codes.nbytes) + self.codebook.memory_bytes


class PQQueryContext(QueryContext):
    """Per-search state for ADC: the flat LUT rides in ``aug_query``.

    ``aug_query`` holds the raveled ``(m·256,)`` table so the inherited
    :meth:`DistanceKernel.queries` stacking works unchanged and every rank
    evaluation is one fancy-index gather + row sum.
    """

    __slots__ = ("lut",)

    def __init__(self, query: np.ndarray, q_sq: float, unit: np.ndarray,
                 lut: np.ndarray):
        super().__init__(query, q_sq, unit, lut.reshape(-1))
        self.lut = lut


class PQKernel(DistanceKernel):
    """ADC distance kernel over uint8 PQ codes.

    Implements the full :class:`DistanceKernel` contract without ever
    materializing float rows: ``rank`` gathers LUT entries addressed by
    ``code + 256·subspace`` and sums per row.  The code matrix is treated
    as immutable (cold snapshots / rebuilt-on-mutation scan kernels), so
    the incremental-binding methods raise.
    """

    __slots__ = ("codebook", "_codes", "_flat_offsets")

    def __init__(self, codebook: PQCodebook, codes: np.ndarray, metric: Metric):
        if not isinstance(metric, Metric):
            raise VectorSearchError(f"unsupported metric: {metric}")
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        if codes.ndim != 2 or codes.shape[1] != codebook.m:
            raise VectorSearchError("PQKernel expects (n, m) uint8 codes")
        # Deliberately no super().__init__: the base constructor exists to
        # build the float augmented-row cache, which PQ replaces with codes.
        self.metric = metric
        self.dim = codebook.dim
        self._vectors = None
        self._aug = None
        self._cols = None
        self.codebook = codebook
        self._codes = codes
        self._flat_offsets = np.arange(codebook.m, dtype=np.intp) * CODEBOOK_SIZE

    # ------------------------------------------------------------- binding
    def attach(self, vectors, copy_rows):  # pragma: no cover - contract guard
        raise VectorSearchError("PQKernel is bound to immutable codes")

    def set_row(self, row, vector):  # pragma: no cover - contract guard
        raise VectorSearchError("PQKernel is bound to immutable codes")

    def set_rows(self, rows, vectors):  # pragma: no cover - contract guard
        raise VectorSearchError("PQKernel is bound to immutable codes")

    # ------------------------------------------------------------- queries
    def query(self, query: np.ndarray) -> PQQueryContext:
        query = np.ascontiguousarray(query, dtype=np.float32).reshape(-1)
        metric = self.metric
        if metric is Metric.COSINE:
            norm = float(np.sqrt(query @ query))
            unit = query if norm == 0.0 else query / norm
        else:
            unit = query
        lut = self.codebook.lut(unit if metric is Metric.COSINE else query, metric)
        # q_sq = 0: the L2 LUT already contains |q_j|² per subspace, so the
        # rank distance IS the true distance and the inherited rank→true
        # conversion reduces to the cancellation clamp (L2) / +1 (IP/COS).
        return PQQueryContext(query, 0.0, unit, lut)

    # `queries()` is inherited: it builds per-row contexts through
    # :meth:`query` and stacks `aug_query` — which here stacks flat LUTs.

    # ------------------------------------------------------ rank distances
    def _rank_codes(self, ctx: QueryContext, codes: np.ndarray) -> np.ndarray:
        flat = codes + self._flat_offsets
        ctx.num_distances += codes.shape[0]
        return ctx.aug_query[flat].sum(axis=1, dtype=np.float32)

    def rank(self, ctx: QueryContext, rows) -> np.ndarray:
        return self._rank_codes(ctx, self._codes.take(rows, axis=0))

    # `to_true` and `distances` are inherited — correct given
    # the q_sq = 0 convention above.

    def distances_prefix(self, ctx: QueryContext, n: int) -> np.ndarray:
        return self.to_true(ctx, self._rank_codes(ctx, self._codes[:n]))

    # ------------------------------------------------------- fused queries
    def _multi_from_codes(
        self, mctx: MultiQueryContext, codes: np.ndarray
    ) -> np.ndarray:
        # Per-context gather+sum — the same evaluation the solo path runs —
        # so fused results are bit-identical to per-query, not merely close.
        flat = codes + self._flat_offsets
        count = codes.shape[0]
        rows = []
        for ctx in mctx.contexts:
            ctx.num_distances += count
            rows.append(ctx.aug_query[flat].sum(axis=1, dtype=np.float32))
        out = (
            np.stack(rows)
            if rows
            else np.zeros((0, count), dtype=np.float32)
        )
        if self.metric is Metric.L2:
            np.maximum(out, 0.0, out=out)
        else:
            out += 1.0
        return out

    def distances_multi(self, mctx: MultiQueryContext, rows) -> np.ndarray:
        return self._multi_from_codes(mctx, self._codes.take(rows, axis=0))

    def distances_multi_prefix(self, mctx: MultiQueryContext, n: int) -> np.ndarray:
        return self._multi_from_codes(mctx, self._codes[:n])

    # ----------------------------------------------- candidate-to-candidate
    def pairwise(self, rows, ctx: QueryContext | None = None) -> np.ndarray:
        """Symmetric distances between reconstructions (HNSW selection)."""
        decoded = self.codebook.decode(self._codes.take(rows, axis=0))
        n = decoded.shape[0]
        if ctx is not None:
            ctx.num_distances += n * n
        if self.metric is Metric.L2:
            sq = np.einsum("ij,ij->i", decoded, decoded)
            out = sq[:, None] + sq[None, :] - 2.0 * (decoded @ decoded.T)
            np.maximum(out, 0.0, out=out)
            return out
        # COSINE rows were prenormalized before encoding, matching the
        # float kernel's no-per-call-norm contract.
        return 1.0 - decoded @ decoded.T

    def cross(self, queries: np.ndarray, n: int | None = None) -> np.ndarray:
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        if queries.ndim != 2:
            raise VectorSearchError("cross() expects a (Q, d) matrix")
        stop = self._codes.shape[0] if n is None else n
        codes = self._codes[:stop]
        flat = codes + self._flat_offsets
        out = np.empty((queries.shape[0], codes.shape[0]), dtype=np.float32)
        for qi in range(queries.shape[0]):
            ctx = self.query(queries[qi])
            out[qi] = self.to_true(ctx, ctx.aug_query[flat].sum(axis=1, dtype=np.float32))
        return out


@dataclass(frozen=True)
class PQSearchConfig:
    """Store-wide PQ / two-phase-search policy (``None`` on a store = off).

    ``rerank_factor`` inflates the quantized candidate set: phase one takes
    the top ``k · rerank_factor`` codes by ADC distance, phase two computes
    exact distances on those raw rows only.
    """

    m: int = 8
    train_iterations: int = 8
    seed: int = 17
    rerank: bool = True
    rerank_factor: int = 4
    #: Training subsample cap — codebooks converge long before full-segment
    #: sample sizes, and k-means is the dominant demotion cost.
    train_sample: int = 4096

    def candidates(self, k: int) -> int:
        return max(k, k * self.rerank_factor) if self.rerank else k


class IVFPQIndex(IVFFlatIndex):
    """IVF_FLAT over codes: PQ-coded lists with optional exact rerank.

    The coarse quantizer, per-centroid row lists, tombstoned deletes and
    the filter / de-duplicate / top-k tail are
    :class:`~repro.index.ivf.IVFFlatIndex`'s; this class defines only the
    stored-row format — uint8 PQ codes scored by ADC.  With ``refine=True``
    (default) raw rows are retained and each search reranks the inflated
    quantized candidate set exactly, the classic IndexRefineFlat
    arrangement; ``refine=False`` drops raw rows entirely for the full
    memory saving at quantized-only recall.
    """

    def __init__(
        self,
        dim: int,
        metric: Metric = Metric.L2,
        nlist: int = 64,
        nprobe: int = 8,
        m: int = 8,
        train_iterations: int = 10,
        seed: int = 17,
        refine: bool = True,
        rerank_factor: int = 4,
    ):
        super().__init__(dim, metric, nlist, nprobe, train_iterations, seed)
        if not 1 <= m <= dim:
            raise VectorSearchError(f"m must be in [1, dim]; got m={m}")
        if rerank_factor < 1:
            raise VectorSearchError("rerank_factor must be at least 1")
        self.m = m
        self.refine = refine
        self.rerank_factor = rerank_factor
        self._codebook: PQCodebook | None = None
        self._codes = np.zeros((0, m), dtype=np.uint8)
        # ``_vectors`` (inherited) holds raw rows only when ``refine`` — the
        # rerank phase's source; ``_kernel`` is the ADC kernel over ``_codes``.

    # ------------------------------------------------------------- training
    def _train(self, vectors: np.ndarray) -> None:
        start = time.perf_counter()
        super()._train(vectors)
        self._codebook = PQCodebook.train(
            vectors, self.m, metric=self.metric,
            iterations=self.train_iterations, seed=self.seed,
        )
        self._stats.build_seconds += time.perf_counter() - start

    # ---------------------------------------------------------- row format
    def _append_rows(self, vectors: np.ndarray) -> None:
        codes = self._codebook.encode(_prepare_rows(vectors, self.metric))
        self._codes = np.vstack([self._codes, codes])
        if self.refine:
            self._vectors = np.vstack([self._vectors, vectors])
        # ADC kernels are bound to immutable codes and hold no per-row
        # cache, so rebinding after an append is construction.
        self._kernel = PQKernel(self._codebook, self._codes, self.metric)

    def _score(self, query: np.ndarray, rows: np.ndarray, k: int):
        """Two-phase: ADC over the probed rows, exact rerank on raw."""
        ctx = self._kernel.query(query)
        dists = self._kernel.distances(ctx, rows)
        self._stats.num_distance_computations += ctx.num_distances
        if self.refine:
            take = min(k * self.rerank_factor, rows.size)
            if take < rows.size:
                rows = rows[np.argpartition(dists, take - 1)[:take]]
            raw = DistanceKernel.for_matrix(self._vectors[rows], self.metric)
            dists = raw.distances_prefix(raw.query(query), rows.size)
            self._stats.num_distance_computations += rows.size
        return rows, dists

    # --------------------------------------------------------------- reads
    def get_embedding(self, external_id: int) -> np.ndarray:
        """Raw row when refining; the PQ reconstruction otherwise."""
        if self.refine:
            return super().get_embedding(external_id)
        row = self._id_to_row.get(int(external_id))
        if row is None:
            raise VectorSearchError(f"id {external_id} not in index")
        return self._codebook.decode(self._codes[row])[0]

    @property
    def memory_bytes(self) -> int:
        """Quantized-representation bytes (codes + coarse + PQ tables).

        Raw rows retained for reranking are deliberately excluded: in the
        tiered design they live on disk (memmapped), not in memory.
        """
        coarse = 0 if self._centroids is None else int(self._centroids.nbytes)
        tables = 0 if self._codebook is None else self._codebook.memory_bytes
        return int(self._codes.nbytes) + coarse + tables
