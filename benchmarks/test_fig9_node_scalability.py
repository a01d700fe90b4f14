"""Figure 9: node scalability — QPS vs number of machines (1, 2, 4, 8).

Paper shape: at 99.9% recall doubling the machine count gains 1.84-1.91x;
at 90% recall, where each search is cheap and the fixed network/coordination
share is proportionally larger, the gain drops to ~1.5x.

Method (per DESIGN.md): per-segment search times are *measured* on the real
per-segment HNSW indexes, then replayed through the discrete-event cluster
simulator driven by the wrk2-like closed-loop load generator (320
connections, matching the paper's sender configuration).
"""

from __future__ import annotations

import pytest

from repro.bench import (
    bench_scale,
    cached_system,
    dataset_for,
    format_table,
    recall_at_k,
)
from repro.bench.harness import embedding_store_for
from repro.cluster import (
    ClosedLoopLoadGenerator,
    ClusterSimulator,
    make_cluster,
    measure_samples,
)

from .conftest import record_table

MACHINES = (1, 2, 4, 8)
K = 10


@pytest.fixture(scope="module")
def store_and_dataset():
    scale = bench_scale()
    dataset = dataset_for("sift")
    # More segments than 8 machines x a few cores so distribution matters.
    segment_size = max(256, len(dataset) // 32)
    store = cached_system(
        f"fig9-store-{scale.name}-{len(dataset)}-{segment_size}",
        lambda: embedding_store_for(dataset, segment_size),
    )
    return store, dataset


def pick_ef_for_recall(store, dataset, target, candidates=(8, 16, 32, 64, 128, 256, 512)):
    """Smallest ef whose merged recall reaches ``target``."""
    for ef in candidates:
        _, results = measure_samples(store, dataset.queries[:20], K, 1, ef=ef)
        ids = [result.ids.tolist() for result in results]
        if recall_at_k(ids, dataset.gt_ids[:20], K) >= target:
            return ef
    return candidates[-1]


def test_fig9_node_scalability(benchmark, store_and_dataset):
    store, dataset = store_and_dataset
    ef_low = pick_ef_for_recall(store, dataset, 0.90)
    ef_high = pick_ef_for_recall(store, dataset, 0.995)
    assert ef_high >= ef_low

    rows = []
    qps = {}
    for label, ef in (("90% recall", ef_low), ("99.9% recall", ef_high)):
        samples, _ = measure_samples(store, dataset.queries[:25], K, 1, ef=ef)
        for machines in MACHINES:
            sim = ClusterSimulator(
                make_cluster(machines, store.num_segments, cores=8),
                dim=dataset.dim,
                k=K,
            )
            gen = ClosedLoopLoadGenerator(sim, connections=320)
            result = gen.run(samples, duration_seconds=3.0)
            qps[(label, machines)] = result.qps
            rows.append(
                [label, ef, machines, round(result.qps),
                 round(result.mean_latency_seconds * 1000, 2)]
            )

    record_table(
        "fig9",
        format_table(
            ["operating point", "ef", "machines", "QPS", "mean latency (ms)"],
            rows,
            title=f"Figure 9 — node scalability ({len(dataset)} SIFT-like vectors, "
            f"{store.num_segments} segments, wrk2-like closed loop)",
        ),
    )

    # Shape assertions: near-linear scaling at the high-recall point...
    high_gains = [
        qps[("99.9% recall", 2 * m)] / qps[("99.9% recall", m)] for m in (1, 2, 4)
    ]
    assert all(1.4 < g <= 2.2 for g in high_gains), high_gains
    # ... and weaker (overhead-bound) scaling at the cheap 90% point.
    low_gains = [
        qps[("90% recall", 2 * m)] / qps[("90% recall", m)] for m in (1, 2, 4)
    ]
    assert all(g <= hg + 0.25 for g, hg in zip(low_gains, high_gains)), (
        low_gains, high_gains,
    )
    assert min(low_gains) < min(high_gains) + 0.2

    benchmark(
        lambda: ClusterSimulator(
            make_cluster(8, store.num_segments, cores=8), dim=dataset.dim, k=K
        ).simulate_request(0.0, {s: 0.001 for s in range(store.num_segments)})
    )
