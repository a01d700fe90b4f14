"""Distributed vector search: scaling, replication, and failover.

Reproduces the mechanics behind the paper's Figures 5 and 9 at demo scale:
per-segment search times are *measured* on real HNSW indexes, then replayed
through the coordinator/worker cluster simulator under a wrk2-like closed
loop — first scaling machines 1 -> 8, then killing a machine and watching
replicas absorb the traffic (Sec. 4.2's high-availability design).  Last,
the served distributed path (an ``ElasticTier``) answers the same at 1
and 8 servers.

Run:  python examples/distributed_scaling.py
"""

import numpy as np

from repro import Attribute, AttrType, TigerVectorDB
from repro.cluster import (
    ClosedLoopLoadGenerator,
    ClusterSimulator,
    make_cluster,
    measure_samples,
)
from repro.datasets import make_sift_like
from repro.elastic import ElasticTier
from repro.serve import ServeConfig

K = 10


def main() -> None:
    print("building a 4000-vector SIFT-like database (16 segments)...")
    dataset = make_sift_like(4_000, num_queries=20, seed=5)
    db = TigerVectorDB(segment_size=250)
    db.schema.create_vertex_type("Item", [Attribute("id", AttrType.INT, primary_key=True)])
    db.schema.add_embedding_attribute(
        "Item", "emb", dimension=dataset.dim, model=dataset.name, metric=dataset.metric
    )
    db.bulk_load_vertices("Item", [{"id": i} for i in range(len(dataset))])
    db.bulk_load_embeddings("Item", "emb", list(range(len(dataset))), dataset.vectors)
    store = db.service.store("Item", "emb")

    # --- measured per-segment service times --------------------------------
    with db.snapshot() as snap:
        samples, _ = measure_samples(store, dataset.queries, K, snap.tid, ef=64)
    mean_seg_ms = 1000 * float(
        np.mean([t for sample in samples for t in sample.values()])
    )
    print(f"measured {len(samples)} queries x {store.num_segments} segments "
          f"(mean {mean_seg_ms:.2f} ms/segment)\n")

    # --- node scalability ---------------------------------------------------
    print("machines |    QPS | mean latency")
    base_qps = None
    for machines in (1, 2, 4, 8):
        sim = ClusterSimulator(
            make_cluster(machines, store.num_segments, cores=4),
            dim=dataset.dim, k=K,
        )
        out = ClosedLoopLoadGenerator(sim, connections=64).run(
            samples, duration_seconds=2.0
        )
        base_qps = base_qps or out.qps
        print(f"{machines:8d} | {out.qps:6.0f} | {out.mean_latency_seconds*1000:6.2f} ms"
              f"   ({out.qps / base_qps:.2f}x)")

    # --- failover with replicas --------------------------------------------
    print("\nfailover (4 machines, replication factor 2):")
    sim = ClusterSimulator(
        make_cluster(4, store.num_segments, cores=4, replication_factor=2),
        dim=dataset.dim, k=K,
    )
    healthy = ClosedLoopLoadGenerator(sim, connections=64).run(
        samples, duration_seconds=2.0
    )
    sim.fail_machine(3)
    sim.reset()
    degraded = ClosedLoopLoadGenerator(sim, connections=64).run(
        samples, duration_seconds=2.0
    )
    print(f"  healthy : {healthy.qps:6.0f} QPS")
    print(f"  1 failed: {degraded.qps:6.0f} QPS "
          f"({degraded.qps / healthy.qps:.0%} retained — replicas absorb the load)")

    # --- the served answer is server-count invariant ------------------------
    answers = []
    for servers in (1, 8):
        with ElasticTier(db, num_servers=servers, config=ServeConfig(workers=1)) as tier:
            answers.append(sorted(tier.search(["Item.emb"], dataset.queries[0], K, ef=64)))
    match = answers[0] == answers[1]
    print(f"\nglobal merge invariant: 1-server and 8-server ElasticTier answers identical: {match}")
    db.close()


if __name__ == "__main__":
    main()
