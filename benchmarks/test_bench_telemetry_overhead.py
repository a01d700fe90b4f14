"""Telemetry overhead on the fig7-style segmented top-k microbench.

Seeds the perf trajectory for the observability layer: the same
``db.vector_search`` workload (every query fanned out over the segments and
merged) runs three ways —

- **off**: the process default (no telemetry installed at all);
- **null**: an explicitly installed :class:`NullTelemetry`, i.e. the
  instrumented hot paths with every probe compiled down to a no-op;
- **on**: a live :class:`Telemetry` recording spans, counters, and
  histograms for every query.

Budgets (asserted): null must stay within 5% of off — disabled telemetry is
contractually free — and on within 25%.  Results go to
``bench_results/BENCH_telemetry.json`` so future PRs can track the cost of
new instruments.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import pytest

from repro.bench import bench_scale
from repro.core.database import TigerVectorDB
from repro.datasets import make_sift_like
from repro.graph.schema import Attribute
from repro.telemetry import NullTelemetry, Telemetry, use_telemetry
from repro.types import AttrType

K = 10
EF = 48
TRIALS = 7
RESULTS_DIR = Path("bench_results")
ATTR = ["Item.emb"]


@pytest.fixture(scope="module")
def subject():
    scale = bench_scale()
    n = max(2_000, scale.vector_count // 4)
    segment_size = max(256, n // 8)
    dataset = make_sift_like(n, num_queries=50, seed=23)
    db = TigerVectorDB(segment_size=segment_size)
    db.schema.create_vertex_type("Item", [Attribute("id", AttrType.INT, primary_key=True)])
    db.schema.add_embedding_attribute(
        "Item", "emb", dimension=dataset.dim, model=dataset.name, metric=dataset.metric
    )
    db.bulk_load_vertices("Item", [{"id": i} for i in range(n)])
    db.bulk_load_embeddings("Item", "emb", list(range(n)), dataset.vectors)
    yield db, dataset
    db.close()


def run_workload(db, queries):
    for query in queries:
        db.vector_search(ATTR, query, K, ef=EF)


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_telemetry_overhead(subject):
    db, dataset = subject
    queries = dataset.queries

    # Warm every cache (numpy, index pages) before any timed trial.
    run_workload(db, queries)

    # Trials are interleaved round-robin across the three modes so slow
    # clock/thermal drift hits every mode equally; min-of-N filters the
    # rest, and GC is paused so collection pauses don't land on one mode.
    telemetry = Telemetry()
    t_off = t_null = t_on = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(TRIALS):
            gc.collect()
            t_off = min(t_off, timed(lambda: run_workload(db, queries)))
            with use_telemetry(NullTelemetry()):
                t_null = min(t_null, timed(lambda: run_workload(db, queries)))
            with use_telemetry(telemetry):
                t_on = min(t_on, timed(lambda: run_workload(db, queries)))
    finally:
        if gc_was_enabled:
            gc.enable()

    null_overhead = t_null / t_off - 1.0
    on_overhead = t_on / t_off - 1.0

    snapshot = telemetry.registry.snapshot()
    payload = {
        "scale": bench_scale().name,
        "num_queries": len(queries),
        "num_segments": db.service.store("Item", "emb").num_segments,
        "trials": TRIALS,
        "seconds": {"off": t_off, "null": t_null, "on": t_on},
        "overhead": {"null_vs_off": null_overhead, "on_vs_off": on_overhead},
        "budget": {"null_vs_off": 0.05, "on_vs_off": 0.25},
        "enabled_counters": snapshot["counters"],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_telemetry.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"\ntelemetry overhead: off={t_off:.4f}s null={t_null:.4f}s "
        f"(+{null_overhead:.1%}) on={t_on:.4f}s (+{on_overhead:.1%})"
    )

    assert null_overhead < 0.05, f"disabled-telemetry overhead {null_overhead:.1%}"
    assert on_overhead < 0.25, f"enabled-telemetry overhead {on_overhead:.1%}"
