"""Elastic-tier scaling benchmark: QPS vs server count, recall unchanged.

Two halves, mirroring how the elastic tier is built:

1. **Capacity scaling** on the calibrated simulator
   (:class:`SimulatedElasticServe`): segments placed by the same
   bounded-load ring assignment the live tier uses, one simulated machine
   per shard server, open-loop Poisson arrivals driven above capacity so
   reported QPS converges to fleet capacity.  Budgets (asserted): two
   servers must reach >= 1.7x single-server QPS, four servers >= 3.0x.

2. **Answer identity** on a real :class:`ElasticTier`: the same query
   stream through 1-server and 4-server tiers must produce identical
   member sets (the sharded merge is byte-identical to the unsharded
   path), so recall@k against exact ground truth is *unchanged* — both
   numbers are recorded and asserted equal.

Results go to ``bench_results/BENCH_elastic.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.database import TigerVectorDB
from repro.datasets import make_sift_like
from repro.elastic import ElasticTier, SimulatedElasticServe
from repro.graph.schema import Attribute
from repro.serve import ServeConfig
from repro.types import AttrType

K = 10
SERVER_COUNTS = (1, 2, 4)
NUM_SEGMENTS = 32
SIM_DURATION = 3.0
SIM_TARGET_QPS = 400.0
NUM_IDENTITY_QUERIES = 48
RESULTS_DIR = Path("bench_results")
ATTR = ["Item.emb"]

MIN_SPEEDUP_2 = 1.7
MIN_SPEEDUP_4 = 3.0


def build_identity_db(n: int = 1500, segment_size: int = 192):
    dataset = make_sift_like(n, num_queries=NUM_IDENTITY_QUERIES, seed=43)
    dataset = dataset.with_ground_truth(K)
    db = TigerVectorDB(segment_size=segment_size)
    db.schema.create_vertex_type(
        "Item", [Attribute("id", AttrType.INT, primary_key=True)]
    )
    db.schema.add_embedding_attribute(
        "Item", "emb", dimension=dataset.dim, model=dataset.name,
        metric=dataset.metric,
    )
    db.bulk_load_vertices("Item", [{"id": i} for i in range(n)])
    db.bulk_load_embeddings("Item", "emb", list(range(n)), dataset.vectors)
    return db, dataset


def recall_at_k(answers: list, gt_ids) -> float:
    hits = 0
    for qi, vset in enumerate(answers):
        got = {vid for _, vid in vset}
        hits += len(got & set(int(i) for i in gt_ids[qi][:K]))
    return hits / (len(answers) * K)


def test_elastic_scaling_and_recall():
    payload = {
        "num_segments": NUM_SEGMENTS,
        "sim_duration_seconds": SIM_DURATION,
        "sim_target_qps": SIM_TARGET_QPS,
        "servers": {},
    }

    # ---- half 1: open-loop Poisson capacity scaling ----------------------
    qps = {}
    for count in SERVER_COUNTS:
        sim = SimulatedElasticServe(num_servers=count, num_segments=NUM_SEGMENTS)
        counts = sim.segment_counts()
        result = sim.run_open_loop(
            duration_seconds=SIM_DURATION, target_qps=SIM_TARGET_QPS, seed=0
        )
        qps[count] = result.qps
        payload["servers"][str(count)] = {
            "qps": result.qps,
            "segment_counts": counts,
        }
    speedups = {
        str(count): qps[count] / qps[1] for count in SERVER_COUNTS if count > 1
    }
    payload["speedups"] = speedups

    # ---- half 2: real-tier identity => recall unchanged ------------------
    db, dataset = build_identity_db()
    config = ServeConfig(workers=2, enable_batching=False, enable_cache=False)
    answers = {}
    try:
        for count in (1, 4):
            with ElasticTier(db, num_servers=count, config=config) as tier:
                answers[count] = [
                    sorted(tier.search(ATTR, q, K)) for q in dataset.queries
                ]
    finally:
        db.close()
    identical = answers[1] == answers[4]
    recalls = {
        str(count): recall_at_k(answers[count], dataset.gt_ids)
        for count in (1, 4)
    }
    payload["identity_1_vs_4"] = identical
    payload["recall_at_k"] = recalls
    payload["budget"] = {
        "min_speedup_2": MIN_SPEEDUP_2,
        "min_speedup_4": MIN_SPEEDUP_4,
        "recall_unchanged": True,
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_elastic.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    for count in SERVER_COUNTS:
        entry = payload["servers"][str(count)]
        print(
            f"\n{count} server(s): {entry['qps']:,.1f} QPS "
            f"(segments/server {entry['segment_counts']})"
        )
    print(
        f"speedups: 2 servers {speedups['2']:.2f}x, 4 servers "
        f"{speedups['4']:.2f}x; recall@{K} {recalls['1']:.3f} -> "
        f"{recalls['4']:.3f} (identical: {identical})"
    )

    assert speedups["2"] >= MIN_SPEEDUP_2, (
        f"2 servers reached only {speedups['2']:.2f}x single-server QPS"
    )
    assert speedups["4"] >= MIN_SPEEDUP_4, (
        f"4 servers reached only {speedups['4']:.2f}x single-server QPS"
    )
    assert identical, "sharded answers diverged from the single-server path"
    assert recalls["1"] == recalls["4"], "recall changed with server count"
