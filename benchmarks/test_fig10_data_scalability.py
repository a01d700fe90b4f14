"""Figure 10: data-size scalability — 10x more vectors on a fixed cluster.

Paper shape: scaling SIFT100M -> SIFT1B (10x data, 10x segments) on 8
machines drops QPS roughly proportionally — to ~10% at high-recall points,
but only to ~14.75% at the cheapest point (ef=12) because the larger
dataset raises CPU utilization (compute amortizes fixed per-request costs).
"""

from __future__ import annotations

import pytest

from repro.bench import bench_scale, cached_system, format_table
from repro.bench.harness import embedding_store_for
from repro.cluster import (
    ClosedLoopLoadGenerator,
    ClusterSimulator,
    make_cluster,
    measure_samples,
)
from repro.datasets import make_sift_like

from .conftest import record_table

K = 10
EF_SWEEP = (12, 32, 96)
RATIO = 10  # the paper's 100M -> 1B ratio, preserved at laptop scale


@pytest.fixture(scope="module")
def stores():
    scale = bench_scale()
    base_n = max(2_000, scale.vector_count // 4)
    big_n = base_n * RATIO
    segment_size = max(256, base_n // 4)  # 10x data -> exactly 10x segments
    small_ds = make_sift_like(base_n, num_queries=25, seed=11)
    big_ds = make_sift_like(big_n, num_queries=25, seed=11)
    small = cached_system(
        f"fig10-small-{scale.name}-{base_n}",
        lambda: embedding_store_for(small_ds, segment_size),
    )
    big = cached_system(
        f"fig10-big-{scale.name}-{big_n}",
        lambda: embedding_store_for(big_ds, segment_size),
    )
    return (small, small_ds), (big, big_ds)


def test_fig10_data_scalability(benchmark, stores):
    (small, small_ds), (big, big_ds) = stores
    assert big.num_segments == RATIO * small.num_segments

    rows = []
    retention = {}
    for ef in EF_SWEEP:
        qps = {}
        for label, store, dataset in (
            ("base", small, small_ds),
            (f"{RATIO}x", big, big_ds),
        ):
            samples, _ = measure_samples(store, dataset.queries[:20], K, 1, ef=ef)
            sim = ClusterSimulator(
                make_cluster(8, store.num_segments, cores=8),
                dim=dataset.dim,
                k=K,
            )
            gen = ClosedLoopLoadGenerator(sim, connections=320)
            qps[label] = gen.run(samples, duration_seconds=3.0).qps
        kept = qps[f"{RATIO}x"] / qps["base"]
        retention[ef] = kept
        rows.append(
            [ef, round(qps["base"]), round(qps[f"{RATIO}x"]), f"{kept:.1%}"]
        )

    record_table(
        "fig10",
        format_table(
            ["ef", f"QPS @ {len(small_ds)}", f"QPS @ {len(big_ds)}", "retained"],
            rows,
            title=f"Figure 10 — data-size scalability on 8 machines "
            f"({RATIO}x data, {RATIO}x segments)",
        ),
    )

    # Shape: throughput drops roughly proportionally to data size.  The
    # paper's secondary effect (the cheapest point retains the most, via
    # improved CPU utilization) is within measurement noise at laptop scale,
    # so the bench asserts the proportional band, and the retained-most
    # ordering is reported in the table rather than asserted.
    for ef, kept in retention.items():
        assert 0.05 < kept < 0.45, (ef, kept)

    benchmark(lambda: small.search_segment(0, small_ds.queries[0], K, 1, ef=32))
