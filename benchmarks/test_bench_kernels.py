"""Distance-kernel layer throughput bench (single-query HNSW).

Measures the kernelized :meth:`HNSWIndex.topk_search` against the pre-kernel
baseline preserved in :mod:`repro.index.reference` — same graph, same ``ef``,
same queries; only the distance math (norm caches + query context vs per-hop
``diff``/norm recomputation) and the layer-search inner loop (rounds of
``ef // ROUND_SHARE`` candidates with array admission vs one hop at a time
with per-neighbour Python) differ.  The reference's one-hop-at-a-time walk is
also the index's own order at a round width of 1.

Budgets (asserted):

- kernelized single-query search must reach >= 1.5x the reference-kernel
  throughput;
- recall@k must not drop (by more than 0.5% absolute — float wobble on
  near-ties; a wider round reaches a few more rows, so it may be higher);
- kernel distances must agree with :func:`repro.types.batch_distances` within
  1e-4 relative tolerance on every reported neighbour.

Results go to ``bench_results/BENCH_kernels.json``.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import bench_scale, cached_system
from repro.datasets import make_sift_like
from repro.index.hnsw import HNSWIndex
from repro.index.reference import reference_topk_search
from repro.types import batch_distances

K = 10
EF = 48
TRIALS = 9
RESULTS_DIR = Path("bench_results")


@pytest.fixture(scope="module")
def subject():
    scale = bench_scale()
    n = max(2_000, scale.vector_count // 4)
    dataset = make_sift_like(n, num_queries=64, seed=67).with_ground_truth(K)

    def build():
        index = HNSWIndex(dim=dataset.dim, metric=dataset.metric, M=16,
                          ef_construction=128, seed=7)
        index.update_items(np.arange(n, dtype=np.int64), dataset.vectors)
        return index

    index = cached_system(f"kernels-hnsw-{scale.name}-{n}", build)
    return index, dataset


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def recall_at_k(result_ids, gt_ids):
    hits = 0
    for got, expected in zip(result_ids, gt_ids):
        hits += len(set(got) & set(int(i) for i in expected[:K]))
    return hits / (len(result_ids) * K)


def test_kernel_search_throughput(subject):
    index, dataset = subject
    queries = dataset.queries

    def run_kernel():
        return [index.topk_search(q, K, ef=EF) for q in queries]

    scratch: dict = {}

    def run_reference():
        return [
            reference_topk_search(index, q, K, ef=EF, _scratch=scratch)
            for q in queries
        ]

    # Warm every cache (numpy, BLAS threads, kernel norm caches) untimed.
    kernel_results = run_kernel()
    reference_results = run_reference()

    kernel_times: list[float] = []
    reference_times: list[float] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Interleaved round-robin trials so clock/thermal drift hits every
        # mode equally (BENCH_telemetry methodology).  Each trial's two
        # runs execute back-to-back under the same machine state, so the
        # *paired* ratio within a trial is robust to load shifts that move
        # every mode together; the median across trials then rejects
        # trials where a scheduler burst hit one mode mid-run.
        for _ in range(TRIALS):
            gc.collect()
            kernel_times.append(timed(run_kernel))
            reference_times.append(timed(run_reference))
    finally:
        if gc_was_enabled:
            gc.enable()

    t_kernel = min(kernel_times)
    t_reference = min(reference_times)
    speedup = float(np.median(np.asarray(reference_times) / np.asarray(kernel_times)))

    kernel_recall = recall_at_k([r.ids for r in kernel_results], dataset.gt_ids)
    reference_recall = recall_at_k([r.ids for r in reference_results], dataset.gt_ids)

    # Kernel distances must agree with the shared reference formulation on
    # every reported neighbour (relative tolerance: SIFT-scale squared
    # distances reach ~1e5, so absolute comparison would be meaningless).
    max_rel_err = 0.0
    for query, result in zip(queries, kernel_results):
        if not len(result):
            continue
        rows = [index._id_to_row[int(i)] for i in result.ids]
        exact = batch_distances(query, index._vectors[rows], index.metric)
        err = np.abs(result.distances.astype(np.float64) - exact.astype(np.float64))
        denom = np.maximum(np.abs(exact.astype(np.float64)), 1.0)
        max_rel_err = max(max_rel_err, float((err / denom).max()))

    payload = {
        "scale": bench_scale().name,
        "num_vectors": len(dataset),
        "num_queries": len(queries),
        "k": K,
        "ef": EF,
        "trials": TRIALS,
        "seconds": {
            "kernel": t_kernel,
            "reference": t_reference,
        },
        "qps": {
            "kernel": len(queries) / t_kernel,
            "reference": len(queries) / t_reference,
        },
        "speedup_kernel_vs_reference": speedup,
        "speedup_estimator": "median of paired interleaved trial ratios",
        "recall_at_k": {
            "kernel": kernel_recall,
            "reference": reference_recall,
        },
        "max_relative_distance_error": max_rel_err,
        "budget": {
            "min_speedup": 1.5,
            "max_recall_drop": 0.005,
            "max_relative_distance_error": 1e-4,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_kernels.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"\nkernel {len(queries) / t_kernel:,.0f} QPS  "
        f"reference {len(queries) / t_reference:,.0f} QPS  "
        f"speedup {speedup:.2f}x  "
        f"recall kernel {kernel_recall:.3f} / reference {reference_recall:.3f}  "
        f"max rel dist err {max_rel_err:.2e}"
    )

    assert speedup >= 1.5, (
        f"kernelized search reached only {speedup:.2f}x the reference-kernel "
        f"throughput (budget 1.5x)"
    )
    assert kernel_recall >= reference_recall - 0.005, (
        f"kernel recall {kernel_recall:.3f} dropped below reference "
        f"{reference_recall:.3f}"
    )
    assert max_rel_err <= 1e-4, (
        f"kernel distances diverge from batch_distances by {max_rel_err:.2e} "
        f"relative (budget 1e-4)"
    )
