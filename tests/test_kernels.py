"""Equivalence suite for the metric-specialized distance-kernel layer.

Property-style checks that :class:`repro.index.kernels.DistanceKernel`
agrees with the straightforward formulations in :mod:`repro.types`
(``batch_distances`` / ``pairwise_distances``) within 1e-4 relative error
for every metric, including the awkward corners — zero vectors, dim-1
matrices, replaced rows in incremental binding mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.embedding import EmbeddingType
from repro.core.service import EmbeddingStore
from repro.index.bruteforce import BruteForceIndex
from repro.index.kernels import DistanceKernel
from repro.types import (
    IndexType,
    Metric,
    batch_distances,
    batch_distances_multi,
    pairwise_distances,
)

METRICS = [Metric.L2, Metric.IP, Metric.COSINE]


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = np.maximum(np.abs(want), 1.0)
    return float(np.max(np.abs(got - want) / denom)) if got.size else 0.0


def make_case(rng, n, dim, *, zeros=False):
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    if zeros and n >= 3:
        vectors[0] = 0.0
        vectors[n // 2] = 0.0
    return vectors


# --------------------------------------------------------------------------
# kernel vs batch_distances / pairwise_distances
# --------------------------------------------------------------------------


class TestKernelEquivalence:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("dim", [1, 3, 16])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_distances_match_batch_distances(self, rng, metric, dim, zeros):
        vectors = make_case(rng, 64, dim, zeros=zeros)
        kernel = DistanceKernel.for_matrix(vectors, metric)
        queries = rng.standard_normal((8, dim)).astype(np.float32)
        queries[0] = 0.0  # zero query: cosine distance defined as 1.0
        for q in queries:
            want = batch_distances(q, vectors, metric)
            ctx = kernel.query(q)
            got = kernel.distances_prefix(ctx, len(vectors))
            assert rel_err(got, want) <= 1e-4
            rows = np.arange(len(vectors), dtype=np.int64)
            assert rel_err(kernel.distances(ctx, rows), want) <= 1e-4

    @pytest.mark.parametrize("metric", METRICS)
    def test_multi_contexts_match_solo(self, rng, metric):
        vectors = make_case(rng, 40, 8, zeros=True)
        kernel = DistanceKernel.for_matrix(vectors, metric)
        queries = rng.standard_normal((5, 8)).astype(np.float32)
        queries[2] = 0.0
        mctx = kernel.queries(queries)
        fused = kernel.distances_multi_prefix(mctx, len(vectors))
        for qi, q in enumerate(queries):
            solo = kernel.distances_prefix(kernel.query(q), len(vectors))
            assert rel_err(fused[qi], solo) <= 1e-4

    @pytest.mark.parametrize("metric", METRICS)
    def test_pairwise_matches_pairwise_distances(self, rng, metric):
        vectors = make_case(rng, 24, 6, zeros=True)
        kernel = DistanceKernel.for_matrix(vectors, metric)
        rows = np.arange(len(vectors), dtype=np.int64)
        want = pairwise_distances(vectors, vectors, metric)
        assert rel_err(kernel.pairwise(rows), want) <= 1e-4

    @pytest.mark.parametrize("metric", METRICS)
    def test_cross_matches_batch_distances_multi(self, rng, metric):
        vectors = make_case(rng, 32, 5, zeros=True)
        kernel = DistanceKernel.for_matrix(vectors, metric)
        queries = rng.standard_normal((7, 5)).astype(np.float32)
        want = batch_distances_multi(queries, vectors, metric)
        assert rel_err(kernel.cross(queries), want) <= 1e-4

    @pytest.mark.parametrize("metric", METRICS)
    def test_replaced_rows_incremental_binding(self, rng, metric):
        """set_row/set_rows keep the cache equal to a from-scratch rebuild."""
        vectors = make_case(rng, 20, 4)
        kernel = DistanceKernel(metric, vectors.copy(), precompute=True)
        # Replace a few rows (one with a zero vector) through the owner's
        # mutation protocol, exactly like BruteForceIndex.update_items.
        replacements = {3: rng.standard_normal(4).astype(np.float32),
                        7: np.zeros(4, dtype=np.float32),
                        19: rng.standard_normal(4).astype(np.float32)}
        current = vectors.copy()
        for row, vec in replacements.items():
            current[row] = vec
            kernel._vectors[row] = vec
            kernel.set_row(row, vec)
        q = rng.standard_normal(4).astype(np.float32)
        want = batch_distances(q, current, metric)
        got = kernel.distances_prefix(kernel.query(q), len(current))
        assert rel_err(got, want) <= 1e-4
        # Bit-identity with a bulk-rebuilt kernel over the same data: the
        # incremental and precomputed paths share one reduction order.
        rebuilt = DistanceKernel.for_matrix(current, metric)
        np.testing.assert_array_equal(
            kernel._aug[: len(current)], rebuilt._aug
        )

    @pytest.mark.parametrize("metric", METRICS)
    def test_rank_to_true_round_trip(self, rng, metric):
        vectors = make_case(rng, 16, 3, zeros=True)
        kernel = DistanceKernel.for_matrix(vectors, metric)
        q = rng.standard_normal(3).astype(np.float32)
        ctx = kernel.query(q)
        rows = np.arange(len(vectors), dtype=np.int64)
        rank = kernel.rank(ctx, rows)
        true = kernel.to_true(ctx, rank)
        # Rank distances preserve order; to_true restores values.
        assert list(np.argsort(rank, kind="stable")) == list(
            np.argsort(true, kind="stable")
        )
        assert rel_err(true, batch_distances(q, vectors, metric)) <= 1e-4
        if metric is Metric.L2:
            assert float(true.min()) >= 0.0


# --------------------------------------------------------------------------
# the lazy column copy a fused scan multiplies follows the rows
# --------------------------------------------------------------------------


class TestColumnCopy:
    """``distances_multi_prefix`` reads a (d+1, n) copy of the augmented
    rows built on first use; a kernel whose rows change must never serve
    the copy of its old rows."""

    @pytest.mark.parametrize("metric", METRICS)
    def test_set_rows_drops_the_copy(self, rng, metric):
        vectors = make_case(rng, 30, 6)
        kernel = DistanceKernel.for_matrix(vectors.copy(), metric)
        mctx = kernel.queries(rng.standard_normal((4, 6)).astype(np.float32))
        kernel.distances_multi_prefix(mctx, 30)  # builds the copy
        vectors[5:9] = rng.standard_normal((4, 6))
        kernel.set_rows(slice(5, 9), vectors[5:9])
        vectors[20] = rng.standard_normal(6)
        kernel.set_row(20, vectors[20])
        want = DistanceKernel.for_matrix(vectors, metric).distances_multi_prefix(mctx, 30)
        np.testing.assert_array_equal(kernel.distances_multi_prefix(mctx, 30), want)

    @pytest.mark.parametrize("metric", METRICS)
    def test_attach_drops_the_copy(self, rng, metric):
        vectors = make_case(rng, 24, 5)
        kernel = DistanceKernel(metric, vectors[:10].copy(), precompute=False)
        kernel.set_rows(slice(0, 10), vectors[:10])
        mctx = kernel.queries(rng.standard_normal((3, 5)).astype(np.float32))
        assert kernel.distances_multi_prefix(mctx, 10).shape == (3, 10)
        kernel.attach(vectors.copy(), copy_rows=10)  # the owner grew its matrix
        assert kernel.distances_multi_prefix(mctx, 24).shape == (3, 24)
        kernel.set_rows(slice(10, 24), vectors[10:])
        want = DistanceKernel.for_matrix(vectors, metric).distances_multi_prefix(mctx, 24)
        np.testing.assert_array_equal(kernel.distances_multi_prefix(mctx, 24), want)

    @pytest.mark.parametrize("metric", METRICS)
    def test_bulk_load_drops_the_snapshot_kernel(self, rng, metric):
        """``bulk_load`` writes the current snapshot in place and drops its
        kernel, copy and all: the next fused batch reads the new rows."""
        dim = 8
        embedding = EmbeddingType("emb", dim, metric=metric, index=IndexType.FLAT, index_params={})
        store = EmbeddingStore("Doc", embedding, segment_size=32)
        vectors = make_case(rng, 32, dim)
        store.bulk_load(np.arange(20), vectors[:20], tid=1)
        queries = rng.standard_normal((4, dim)).astype(np.float32)
        store.search_segment_batch(0, queries, 32, snapshot_tid=1)  # builds the copy
        store.bulk_load(np.arange(3, 32), vectors[3:], tid=1)  # rewrites 3..19, adds 20..31
        dists, offsets = store.search_segment_batch(0, queries, 32, snapshot_tid=1)
        for qi, q in enumerate(queries):
            want = batch_distances(q, vectors, metric)
            assert sorted(offsets[qi].tolist()) == list(range(32))
            assert rel_err(dists[qi], want[offsets[qi]]) <= 1e-4


# --------------------------------------------------------------------------
# index backends route through the kernel and stay exact
# --------------------------------------------------------------------------


class TestBackendEquivalence:
    @pytest.mark.parametrize("metric", METRICS)
    def test_bruteforce_matches_oracle(self, rng, metric):
        dim = 6
        vectors = make_case(rng, 50, dim, zeros=True)
        index = BruteForceIndex(dim=dim, metric=metric)
        index.update_items(list(range(50)), vectors)
        # Replace some rows and delete one (exercises set_row + swap-remove).
        index.update_items([4, 9], rng.standard_normal((2, dim)).astype(np.float32))
        index.delete_items([17])
        q = rng.standard_normal(dim).astype(np.float32)
        result = index.topk_search(q, 10)
        live = {i: index.get_embedding(i) for i in range(50) if i != 17}
        ids = list(live)
        want = batch_distances(q, np.stack([live[i] for i in ids]), metric)
        oracle = sorted(zip(want.tolist(), ids))[:10]
        assert list(result.ids) == [i for _, i in oracle]
        assert rel_err(result.distances, [d for d, _ in oracle]) <= 1e-4
