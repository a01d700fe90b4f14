"""Serving-layer micro-batching throughput bench.

Drives two identical :class:`QueryServer` instances — one with the dynamic
micro-batcher enabled, one per-query — with closed-loop client threads at
concurrency 1, 8, and 32, both with the result cache OFF so every request
does real work.  Reports throughput and latency percentiles per mode and
concurrency, plus recall@k against exact ground truth for both modes.

Budgets (asserted):

- at concurrency 32 the fused path must reach >= 2x the unbatched
  throughput (the batcher coalesces same-attribute top-k requests into one
  fused segment scan; per-query HNSW pays pure-Python graph walks per
  request);
- recall@k of the batched path must not drop below the unbatched path
  (the fused kernel is exact brute force, so it can only match or beat
  the per-query HNSW recall).

At concurrency 1 the batcher has nothing to coalesce and pays its window
wait; that number is reported (not asserted) so the tradeoff stays visible.
Results go to ``bench_results/BENCH_serve.json``.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import bench_scale, cached_system
from repro.bench.harness import embedding_store_for
from repro.core.database import TigerVectorDB
from repro.datasets import make_sift_like
from repro.graph.schema import Attribute
from repro.serve import QueryServer, ServeConfig
from repro.types import AttrType

K = 10
NUM_QUERIES = 96
CONCURRENCIES = (1, 8, 32)
TRIALS = 3
RESULTS_DIR = Path("bench_results")
ATTR = ["Item.emb"]


@pytest.fixture(scope="module")
def subject():
    scale = bench_scale()
    n = max(2_000, scale.vector_count // 4)
    segment_size = max(256, n // 8)
    dataset = make_sift_like(n, num_queries=NUM_QUERIES, seed=41)
    dataset = dataset.with_ground_truth(K)
    store = cached_system(
        f"serve-batching-{scale.name}-{n}",
        lambda: embedding_store_for(dataset, segment_size),
    )
    db = TigerVectorDB(segment_size=segment_size)
    db.schema.create_vertex_type(
        "Item", [Attribute("id", AttrType.INT, primary_key=True)]
    )
    db.schema.add_embedding_attribute(
        "Item", "emb", dimension=dataset.dim, model=dataset.name,
        metric=dataset.metric,
    )
    db.bulk_load_vertices("Item", [{"id": i} for i in range(n)])
    # Reuse the cached HNSW build instead of re-ingesting n vectors.
    db.service.attach_store("Item", "emb", store)
    yield db, dataset
    db.close()


def drive(server, queries, concurrency):
    """Closed-loop clients: each thread owns a slice of the query stream."""
    latencies = [[] for _ in range(concurrency)]
    results = {}

    def client(worker_id):
        for qi in range(worker_id, len(queries), concurrency):
            start = time.perf_counter()
            vset = server.search(ATTR, queries[qi], K)
            latencies[worker_id].append(time.perf_counter() - start)
            results[qi] = vset

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(concurrency)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    flat = sorted(lat for lane in latencies for lat in lane)
    return {
        "wall": wall,
        "qps": len(queries) / wall,
        "p50": flat[len(flat) // 2],
        "p95": flat[min(len(flat) - 1, int(len(flat) * 0.95))],
        "results": results,
    }


def recall_at_k(results, gt_ids):
    hits = 0
    for qi, vset in results.items():
        got = {vid for _, vid in vset}
        hits += len(got & set(int(i) for i in gt_ids[qi][:K]))
    return hits / (len(results) * K)


def test_serve_batching_throughput(subject):
    db, dataset = subject
    queries = dataset.queries

    base = dict(workers=4, enable_cache=False, max_queue_depth=1024)
    batched_config = ServeConfig(
        enable_batching=True, batch_window_seconds=0.002, max_batch=32, **base,
    )
    unbatched_config = ServeConfig(enable_batching=False, **base)

    payload = {"scale": bench_scale().name, "num_queries": NUM_QUERIES,
               "k": K, "trials": TRIALS, "concurrency": {}}
    recalls = {}

    with QueryServer(db, batched_config) as batched, \
            QueryServer(db, unbatched_config) as unbatched:
        # Warm both pipelines (numpy caches, index pages, thread startup).
        drive(batched, queries[:16], 8)
        drive(unbatched, queries[:16], 8)

        for concurrency in CONCURRENCIES:
            best = {"batched": None, "unbatched": None}
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                # Interleave modes round-robin so drift hits both equally;
                # min-of-N (by wall time) filters scheduler noise.
                for _ in range(TRIALS):
                    gc.collect()
                    for name, server in (
                        ("batched", batched), ("unbatched", unbatched)
                    ):
                        run = drive(server, queries, concurrency)
                        if best[name] is None or run["wall"] < best[name]["wall"]:
                            best[name] = run
            finally:
                if gc_was_enabled:
                    gc.enable()
            payload["concurrency"][str(concurrency)] = {
                name: {
                    "qps": run["qps"],
                    "p50_seconds": run["p50"],
                    "p95_seconds": run["p95"],
                }
                for name, run in best.items()
            }
            if concurrency == max(CONCURRENCIES):
                recalls = {
                    name: recall_at_k(run["results"], dataset.gt_ids)
                    for name, run in best.items()
                }

    speedup = (
        payload["concurrency"][str(max(CONCURRENCIES))]["batched"]["qps"]
        / payload["concurrency"][str(max(CONCURRENCIES))]["unbatched"]["qps"]
    )
    payload["speedup_at_max_concurrency"] = speedup
    payload["recall_at_k"] = recalls
    payload["budget"] = {"min_speedup_at_32": 2.0}

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_serve.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    for concurrency in CONCURRENCIES:
        entry = payload["concurrency"][str(concurrency)]
        print(
            f"\nconcurrency {concurrency:>2}: "
            f"batched {entry['batched']['qps']:,.0f} QPS "
            f"(p95 {entry['batched']['p95_seconds'] * 1e3:.1f}ms)  "
            f"unbatched {entry['unbatched']['qps']:,.0f} QPS "
            f"(p95 {entry['unbatched']['p95_seconds'] * 1e3:.1f}ms)"
        )
    print(
        f"speedup at {max(CONCURRENCIES)}: {speedup:.2f}x  "
        f"recall batched {recalls['batched']:.3f} vs "
        f"unbatched {recalls['unbatched']:.3f}"
    )

    assert speedup >= 2.0, (
        f"fused batching reached only {speedup:.2f}x unbatched throughput "
        f"at concurrency {max(CONCURRENCIES)}"
    )
    assert recalls["batched"] >= recalls["unbatched"] - 1e-9, (
        f"batched recall {recalls['batched']:.3f} fell below "
        f"unbatched {recalls['unbatched']:.3f}"
    )
