"""PQ benchmark: the memory-vs-recall frontier of the quantized format.

**Frontier sweep** on SIFT-like data — for ``m`` in {8, 16, 32} subspaces,
train a PQ codebook, encode the full dataset, and report (a) the memory
reduction of the quantized representation (codes + codebook vs raw float32
rows) and (b) recall@10 of the two-phase search (ADC candidate scan with
``k·rerank_factor`` inflation, exact rerank on raw rows) against exact
ground truth, alongside the ADC-only recall that the rerank recovers from.

Budgets (asserted):

- some swept ``m`` reaches recall@10 >= 0.95 *with* rerank;
- at that operating point the quantized representation is >= 8x smaller
  than raw (>= 4x at smoke scale, where the fixed 128 KiB codebook is
  amortized over only 2k vectors).

Results go to ``bench_results/BENCH_pq.json``.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import bench_scale, dataset_for
from repro.index.pq import PQCodebook, PQCodes
from repro.types import batch_distances

K = 10
SWEEP_RERANK = (4, 16, 64)
SWEEP_M = (8, 16, 32)
TRIALS = 5
RESULTS_DIR = Path("bench_results")


@pytest.fixture(scope="module")
def dataset():
    return dataset_for("sift")


def recall_at_10(result_rows: list[np.ndarray], gt_ids: np.ndarray) -> float:
    hits = 0
    for got, expected in zip(result_rows, gt_ids):
        hits += len(set(int(i) for i in got) & set(int(i) for i in expected[:K]))
    return hits / (len(result_rows) * K)


def adc_topk(kernel, n: int, query: np.ndarray, k: int) -> np.ndarray:
    ctx = kernel.query(query)
    dists = kernel.distances_prefix(ctx, n)
    if k >= n:
        return np.argsort(dists, kind="stable")
    part = np.argpartition(dists, k - 1)[:k]
    return part[np.argsort(dists[part], kind="stable")]


def two_phase_topk(kernel, dataset, query: np.ndarray, k: int, rerank_factor: int) -> np.ndarray:
    cand = adc_topk(kernel, len(dataset), query, min(k * rerank_factor, len(dataset)))
    exact = batch_distances(query, dataset.vectors[cand], dataset.metric)
    return cand[np.argsort(exact, kind="stable")[:k]]


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_pq_memory_recall_frontier(dataset):
    scale = bench_scale()
    n = len(dataset)
    queries = dataset.queries
    raw_bytes = int(dataset.vectors.nbytes)
    min_reduction = 4.0 if scale.name == "smoke" else 8.0

    frontier = []
    best = None
    for m in SWEEP_M:
        codebook = PQCodebook.train(
            dataset.vectors[: min(n, 8192)], m, metric=dataset.metric, iterations=8
        )
        pq = PQCodes.from_vectors(codebook, dataset.vectors, dataset.metric)
        kernel = pq.kernel(dataset.metric)
        quantized_bytes = pq.memory_bytes
        reduction = raw_bytes / quantized_bytes

        adc_rows = [adc_topk(kernel, n, q, K) for q in queries]
        adc_recall = recall_at_10(adc_rows, dataset.gt_ids)
        rerank_recalls = {}
        for factor in SWEEP_RERANK:
            rows = [two_phase_topk(kernel, dataset, q, K, factor) for q in queries]
            rerank_recalls[factor] = recall_at_10(rows, dataset.gt_ids)

        # Interleaved GC-disabled scan timings (ADC vs exact full scan).
        def run_adc():
            for q in queries:
                adc_topk(kernel, n, q, K)

        def run_exact():
            for q in queries:
                batch_distances(q, dataset.vectors, dataset.metric)

        run_adc(), run_exact()  # warm
        adc_times, exact_times = [], []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(TRIALS):
                gc.collect()
                adc_times.append(timed(run_adc))
                exact_times.append(timed(run_exact))
        finally:
            if gc_was_enabled:
                gc.enable()

        passing = [f for f in SWEEP_RERANK if rerank_recalls[f] >= 0.95]
        point = {
            "m": m,
            "code_bytes_per_vector": m,
            "quantized_bytes": quantized_bytes,
            "memory_reduction": reduction,
            "recall_at_10_adc": adc_recall,
            "recall_at_10_rerank": {str(f): rerank_recalls[f] for f in SWEEP_RERANK},
            "min_rerank_factor_for_0.95": passing[0] if passing else None,
            "adc_scan_qps": len(queries) / min(adc_times),
            "exact_scan_qps": len(queries) / min(exact_times),
        }
        frontier.append(point)
        if passing and (best is None or reduction > best["memory_reduction"]):
            best = {**point, "rerank_factor": passing[0]}

    payload = {
        "scale": scale.name,
        "num_vectors": n,
        "num_queries": len(queries),
        "dim": dataset.dim,
        "k": K,
        "rerank_factors": list(SWEEP_RERANK),
        "trials": TRIALS,
        "raw_bytes": raw_bytes,
        "frontier": frontier,
        "best_operating_point": best,
        "budget": {
            "min_recall_at_10_with_rerank": 0.95,
            "min_memory_reduction": min_reduction,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_pq.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    for point in frontier:
        rerank_desc = " ".join(
            f"rf{f}={point['recall_at_10_rerank'][str(f)]:.3f}" for f in SWEEP_RERANK
        )
        print(
            f"\nm={point['m']:>2}  {point['memory_reduction']:5.1f}x smaller  "
            f"recall@10 adc {point['recall_at_10_adc']:.3f} -> {rerank_desc}  "
            f"adc {point['adc_scan_qps']:,.0f} QPS / exact {point['exact_scan_qps']:,.0f} QPS"
        )

    assert best is not None, (
        "no swept (m, rerank_factor) reached recall@10 >= 0.95: "
        + ", ".join(
            f"m={p['m']}: {max(p['recall_at_10_rerank'].values()):.3f}"
            for p in frontier
        )
    )
    assert best["memory_reduction"] >= min_reduction, (
        f"best operating point (m={best['m']}) reduces memory only "
        f"{best['memory_reduction']:.1f}x (budget {min_reduction}x)"
    )
