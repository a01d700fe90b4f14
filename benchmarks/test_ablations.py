"""Ablations of the design decisions DESIGN.md calls out.

Not a paper table — these quantify the *reasons* behind the paper's design
choices, on this implementation:

1. **Pre-filter vs post-filter** (Sec. 5.2): post-filtering needs repeated
   enlarged searches as selectivity drops; pre-filtering is one call.
2. **Brute-force threshold** (Sec. 5.1): under a highly selective filter, a
   brute-force scan of the valid points beats forcing HNSW past an
   almost-all-invalid neighbourhood.
3. **Diversity heuristic** (Sec. 4.4 / index choice): disabling Algorithm-4
   neighbour selection (Lucene-style graphs) caps recall on clustered data.
4. **Index choice** (Sec. 4.4 extension): HNSW vs IVF-Flat vs IVF-PQ vs SQ8
   vs FLAT — the quantization-based indexes integrate behind the same four
   functions.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench import bench_scale, cached_system, format_table, recall_at_k
from repro.bench.harness import embedding_store_for
from repro.datasets import make_sift_like
from repro.index import (
    Bitmap,
    BruteForceIndex,
    HNSWIndex,
    IVFFlatIndex,
    IVFPQIndex,
    SQ8FlatIndex,
)
from repro.types import Metric

from .conftest import record_table

K = 10


@pytest.fixture(scope="module")
def dataset():
    scale = bench_scale()
    n = max(2_000, scale.vector_count // 4)
    return make_sift_like(n, num_queries=25, seed=31).with_ground_truth(K)


@pytest.fixture(scope="module")
def hnsw_index(dataset):
    scale = bench_scale()

    def build():
        index = HNSWIndex(dataset.dim, dataset.metric, M=16, ef_construction=128)
        index.update_items(np.arange(len(dataset)), dataset.vectors)
        return index

    return cached_system(f"ablation-hnsw-{scale.name}-{len(dataset)}", build)


def test_ablation_prefilter_vs_postfilter(benchmark, dataset, hnsw_index):
    """TigerVector's strategy (pre-filter bitmap + brute-force threshold)
    vs the post-filter approach, across selectivities.

    Raw pre-filtered HNSW also degrades at low selectivity (it must fight
    past invalid neighbourhoods) — that is exactly why the engine flips to
    brute force below the valid-count threshold (Sec. 5.1).  The comparison
    therefore uses the engine's segment search as the pre-filter side.
    """
    scale = bench_scale()
    store = cached_system(
        f"ablation-store-{scale.name}-{len(dataset)}",
        lambda: embedding_store_for(dataset, max(512, len(dataset) // 4)),
    )
    n = store.segment_size  # evaluate within one segment
    rows = []
    ratio_at = {}
    for selectivity in (0.5, 0.1, 0.02):
        allowed = np.zeros(n, dtype=bool)
        allowed[:: int(1 / selectivity)] = True
        bitmap = Bitmap.wrap(allowed)

        def engine_strategy(q):
            return store.search_segment(0, q, K, 1, ef=128, bitmap=bitmap)

        def postfilter(q):
            index = store.segment(0).index
            fetch = K
            while True:
                result = index.topk_search(q, fetch, ef=max(128, fetch))
                survivors = [i for i in result.ids if allowed[i]]
                if len(survivors) >= K or fetch >= n:
                    return survivors[:K]
                fetch = min(fetch * 4, n)

        pre = post = 0.0
        for q in dataset.queries[:10]:
            start = time.perf_counter()
            engine_strategy(q)
            pre += time.perf_counter() - start
            start = time.perf_counter()
            postfilter(q)
            post += time.perf_counter() - start
        ratio = post / pre
        ratio_at[selectivity] = ratio
        rows.append([f"{selectivity:.0%}", round(pre * 100, 2), round(post * 100, 2), round(ratio, 2)])
    record_table(
        "ablation_prefilter",
        format_table(
            ["selectivity", "engine pre-filter (ms/10q)", "post-filter (ms/10q)", "post/pre"],
            rows,
            title="Ablation — engine pre-filter strategy vs post-filter by selectivity",
        ),
    )
    # The engine strategy wins at low selectivity (the BF threshold kicks
    # in) and its advantage grows as the filter gets more selective.
    assert ratio_at[0.02] > 1.5
    assert ratio_at[0.02] > ratio_at[0.5]
    benchmark(lambda: hnsw_index.topk_search(dataset.queries[0], K, ef=64))


def test_ablation_bruteforce_threshold(benchmark, dataset):
    """Below the valid-point threshold, brute force beats the index.

    The asserted mechanics are scale-independent: brute-force cost grows
    with the valid count while the index cost does not, and under a highly
    selective filter brute force wins by a wide margin.  (The absolute
    crossover point moves with segment size; pure-Python HNSW overhead puts
    it higher than a C++ engine's.)
    """
    scale = bench_scale()
    store = cached_system(
        f"ablation-store-{scale.name}-{len(dataset)}",
        lambda: embedding_store_for(dataset, max(512, len(dataset) // 4)),
    )
    seg_size = store.segment_size
    rows = []
    bf_times = {}
    hnsw_times = {}
    for valid_count in (16, 64, 256, seg_size):
        bitmap = Bitmap.from_offsets(
            seg_size, range(0, min(valid_count, seg_size))
        )
        bf = index = 0.0
        for q in dataset.queries[:10]:
            start = time.perf_counter()
            store.search_segment(0, q, K, 1, bitmap=bitmap, bf_threshold=seg_size + 1)
            bf += time.perf_counter() - start
            start = time.perf_counter()
            store.search_segment(0, q, K, 1, ef=128, bitmap=bitmap, bf_threshold=0)
            index += time.perf_counter() - start
        bf_times[valid_count] = bf
        hnsw_times[valid_count] = index
        rows.append(
            [valid_count, round(bf * 100, 3), round(index * 100, 3),
             "brute force" if bf < index else "index"]
        )
    record_table(
        "ablation_bf_threshold",
        format_table(
            ["valid points", "brute force (ms/10q)", "HNSW (ms/10q)", "faster"],
            rows,
            title="Ablation — brute-force flip under selective filters "
            f"(segment size {seg_size})",
        ),
    )
    # highly selective filter: brute force wins decisively
    assert bf_times[16] < hnsw_times[16] / 3
    # brute-force cost grows with the valid count; the index's does not
    assert bf_times[seg_size] > bf_times[16]
    assert hnsw_times[seg_size] < hnsw_times[16] * 3
    benchmark(lambda: store.search_segment(0, dataset.queries[0], K, 1, ef=64))


def test_ablation_diversity_heuristic(benchmark, dataset):
    """Lucene-style pruning (no Algorithm 4) caps recall on clustered data."""
    scale = bench_scale()

    def build(heuristic: bool):
        index = HNSWIndex(
            dataset.dim, dataset.metric, M=16, ef_construction=128,
            prune_heuristic=heuristic,
        )
        index.update_items(np.arange(len(dataset)), dataset.vectors)
        return index

    with_h = cached_system(
        f"ablation-hnsw-{scale.name}-{len(dataset)}", lambda: build(True)
    )
    without_h = cached_system(
        f"ablation-hnsw-noheur-{scale.name}-{len(dataset)}", lambda: build(False)
    )
    rows = []
    recalls = {}
    for ef in (16, 64, 256):
        for label, index in (("with heuristic", with_h), ("without", without_h)):
            ids = [index.topk_search(q, K, ef=ef).ids.tolist() for q in dataset.queries]
            recalls[(label, ef)] = recall_at_k(ids, dataset.gt_ids, K)
            rows.append([label, ef, round(recalls[(label, ef)], 4)])
    record_table(
        "ablation_heuristic",
        format_table(
            ["build", "ef", "recall@10"],
            rows,
            title="Ablation — diversity-heuristic neighbour selection",
        ),
    )
    assert recalls[("with heuristic", 256)] >= recalls[("without", 256)]
    benchmark(lambda: with_h.topk_search(dataset.queries[0], K, ef=64))


def test_ablation_index_choice(benchmark, dataset):
    """HNSW vs IVF-Flat vs IVF-PQ vs SQ8 vs FLAT behind the same interface."""
    scale = bench_scale()
    n = len(dataset)

    def build_all():
        indexes = {}
        timings = {}
        for name, factory in (
            ("HNSW", lambda: HNSWIndex(dataset.dim, dataset.metric, M=16, ef_construction=128)),
            ("IVF_FLAT", lambda: IVFFlatIndex(dataset.dim, dataset.metric, nlist=32, nprobe=4)),
            ("IVF_PQ", lambda: IVFPQIndex(dataset.dim, dataset.metric, nlist=32, nprobe=4, m=8)),
            ("SQ8", lambda: SQ8FlatIndex(dataset.dim, dataset.metric)),
            ("FLAT", lambda: BruteForceIndex(dataset.dim, dataset.metric)),
        ):
            index = factory()
            start = time.perf_counter()
            index.update_items(np.arange(n), dataset.vectors)
            timings[name] = time.perf_counter() - start
            indexes[name] = index
        return indexes, timings

    indexes, build_times = cached_system(
        f"ablation-5indexes-{scale.name}-{n}", build_all
    )
    rows = []
    measured = {}
    dist_per_query = {}
    for name, index in indexes.items():
        ids = []
        elapsed = 0.0
        dists_before = index.stats.num_distance_computations
        for q in dataset.queries:
            start = time.perf_counter()
            result = index.topk_search(q, K, ef=64)
            elapsed += time.perf_counter() - start
            ids.append(result.ids.tolist())
        dist_per_query[name] = (
            index.stats.num_distance_computations - dists_before
        ) / len(dataset.queries)
        recall = recall_at_k(ids, dataset.gt_ids, K)
        per_query_ms = elapsed / len(dataset.queries) * 1000
        measured[name] = (recall, per_query_ms)
        rows.append(
            [name, round(build_times[name], 2), round(recall, 4),
             round(per_query_ms, 3), round(dist_per_query[name])]
        )
    record_table(
        "ablation_index_choice",
        format_table(
            ["index", "build (s)", "recall@10", "search (ms/query)", "distances/query"],
            rows,
            title=f"Ablation — index choice ({n} SIFT-like vectors)",
        ),
    )
    assert measured["FLAT"][0] > 0.999  # exact
    assert measured["HNSW"][0] > 0.8
    # The index's win is in distance computations (pure-Python graph
    # traversal overhead hides it in wall time at this n).  How much it
    # prunes depends on scale: ef=64 visits most of a 2 000-row graph, so
    # the 0.5x ratio is only asserted from the default scale's 5 000 rows.
    assert dist_per_query["HNSW"] < dist_per_query["FLAT"]
    if n >= 5_000:
        assert dist_per_query["HNSW"] < 0.5 * dist_per_query["FLAT"]
    benchmark(lambda: indexes["HNSW"].topk_search(dataset.queries[0], K, ef=64))
