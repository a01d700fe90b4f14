"""Figure 11: incremental index update vs full rebuild on update ratio.

Paper shape: incremental update time grows with the fraction of vectors
updated and crosses the flat full-rebuild line at ~20%; beyond the
crossover, rebuilding is cheaper.  The mechanism reproduced here is real.
A rebuild wires every row at once: exact candidates for all rows from one
blocked scan, and each neighbour list pruned at most once.  An update of the
ids an index holds is wired by that same scan and prune, at the rows the
ids already have, but it pays two things a build does not: each row is
first unlinked, one at a time, with a substitute edge for every
in-neighbour, and each rewritten row's candidates come from the whole index
rather than from the rows built before it.  Per vector, an update therefore
costs more than a built row does.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench import bench_scale, cached_system, format_table
from repro.datasets import make_sift_like
from repro.index import HNSWIndex

from .conftest import record_table

RATIOS = (0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)


@pytest.fixture(scope="module")
def base_index_and_data():
    scale = bench_scale()
    n = max(2_000, scale.vector_count // 4)
    dataset = make_sift_like(n, num_queries=1, seed=21)

    def build():
        index = HNSWIndex(dataset.dim, dataset.metric, M=16, ef_construction=128)
        start = time.perf_counter()
        index.update_items(np.arange(n), dataset.vectors)
        build_seconds = time.perf_counter() - start
        return index, dataset.vectors, build_seconds

    return cached_system(f"fig11-base-{scale.name}-{n}", build)


def test_fig11_incremental_update_vs_rebuild(benchmark, base_index_and_data):
    base_index, vectors, rebuild_seconds = base_index_and_data
    n = len(vectors)
    rng = np.random.default_rng(99)

    rows = []
    update_times = {}
    for ratio in RATIOS:
        count = max(1, int(ratio * n))
        ids = rng.choice(n, size=count, replace=False)
        new_vectors = vectors[ids] + rng.standard_normal(
            (count, vectors.shape[1])
        ).astype(np.float32)
        # The vacuum's index-merge path: clone the snapshot, fold deltas in.
        clone = base_index.clone()
        start = time.perf_counter()
        clone.update_items(ids.tolist(), new_vectors)
        elapsed = time.perf_counter() - start
        update_times[ratio] = elapsed
        rows.append(
            [
                f"{ratio:.0%}",
                round(elapsed, 2),
                round(rebuild_seconds, 2),
                "update" if elapsed < rebuild_seconds else "rebuild",
            ]
        )

    record_table(
        "fig11",
        format_table(
            ["update ratio", "incremental update (s)", "full rebuild (s)", "cheaper"],
            rows,
            title=f"Figure 11 — incremental update vs rebuild ({n} SIFT-like vectors)",
        ),
    )

    # Shape: update time increases with the ratio ...
    times = [update_times[r] for r in RATIOS]
    assert times == sorted(times), times
    # ... small updates clearly beat a rebuild ...
    assert update_times[0.01] < 0.3 * rebuild_seconds
    assert update_times[0.05] < rebuild_seconds
    # ... and a crossover exists somewhere below 100% (paper: ~20%).
    assert update_times[1.0] > rebuild_seconds

    small_ids = rng.choice(n, size=16, replace=False)
    small_vecs = vectors[small_ids]

    def tiny_update():
        clone = base_index.clone()
        clone.update_items(small_ids.tolist(), small_vecs)

    benchmark.pedantic(tiny_update, rounds=1, iterations=1)
