"""The ``repro-serve`` CLI: a self-contained serving demo.

Builds a seeded in-memory graph with one embedding attribute, starts a
:class:`QueryServer`, drives it from concurrent client threads, and prints
throughput plus the serve metrics snapshot.  Useful as a quickstart and as
a smoke check that batching/caching/admission behave on a given machine::

    repro-serve --vectors 2000 --dim 32 --queries 400 --concurrency 8
    repro-serve --no-batching --no-cache     # per-query baseline
    repro-serve --tier-budget-mb 1          # demote cold segments to PQ
    repro-serve --servers 3                 # elastic sharded tier demo

With ``--servers N`` (N > 1) the demo routes through an
:class:`~repro.elastic.router.ElasticTier` instead of a single
``QueryServer``, performs one live ``rebalance_evenly`` mid-run under
traffic, and prints the ownership map, rebalance count, and per-replica
cache hit rates.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

import numpy as np

from ..core.database import TigerVectorDB
from ..graph.schema import Attribute
from ..telemetry import Telemetry, use_telemetry
from ..types import AttrType, Metric
from .server import QueryServer, ServeConfig

__all__ = ["main"]


def build_demo_db(num_vectors: int, dim: int, seed: int, segment_size: int) -> TigerVectorDB:
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((num_vectors, dim)).astype(np.float32)
    db = TigerVectorDB(segment_size=segment_size)
    db.schema.create_vertex_type(
        "Item", [Attribute("id", AttrType.INT, primary_key=True)]
    )
    db.schema.add_embedding_attribute(
        "Item", "emb", dimension=dim, model="demo", metric=Metric.L2
    )
    db.bulk_load_vertices("Item", [{"id": i} for i in range(num_vectors)])
    db.bulk_load_embeddings("Item", "emb", list(range(num_vectors)), vectors)
    return db


def drive_closed_loop(search, queries, concurrency: int, midrun=None):
    """Closed-loop demo load: returns ``(wall_seconds, latencies)``.

    ``concurrency`` client threads stride over the rows of ``queries``,
    each calling ``search(query)`` and timing it; ``midrun`` (if given)
    runs on the calling thread once every client has started — the elastic
    demos fire their live rebalance there, under traffic.  A search that
    raises stops its client, and the first such error is re-raised here, so
    the demo exits non-zero instead of reporting a partial run.
    """
    latencies: list[float] = []
    errors: list[Exception] = []
    lat_lock = threading.Lock()

    def client(worker_id: int) -> None:
        for qi in range(worker_id, len(queries), concurrency):
            start = time.perf_counter()
            try:
                search(queries[qi])
            except Exception as exc:
                with lat_lock:
                    errors.append(exc)
                return
            elapsed = time.perf_counter() - start
            with lat_lock:
                latencies.append(elapsed)

    start = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    if midrun is not None:
        midrun()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - start, latencies


def run_elastic_demo(args, db, queries, config) -> int:
    """The ``--servers N`` path: sharded tier, live rebalance, router stats."""
    from ..elastic import ElasticTier

    with use_telemetry(Telemetry()), db, ElasticTier(db, num_servers=args.servers, config=config) as tier:
        # A live handoff under traffic, so the printed stats demonstrate
        # the drain/transfer/re-admit path rather than a quiescent move.
        wall, latencies = drive_closed_loop(
            lambda query: tier.search(["Item.emb"], query, args.k),
            queries,
            args.concurrency,
            midrun=lambda: tier.rebalance_evenly("default", ["Item.emb"]),
        )
        stats = tier.stats()

    lat = sorted(latencies)
    p50 = lat[len(lat) // 2]
    p95 = lat[min(len(lat) - 1, int(len(lat) * 0.95))]
    print(
        f"served {len(lat)} queries in {wall:.3f}s  "
        f"({len(lat) / wall:,.0f} QPS, {args.servers} servers, "
        f"concurrency {args.concurrency})"
    )
    print(f"latency p50 {p50 * 1e3:.2f}ms  p95 {p95 * 1e3:.2f}ms")
    print(
        f"  router: {stats['routed_requests']} routed, "
        f"{stats['route_retries']} route retries, "
        f"{stats['rebalances']} rebalances, "
        f"{stats['crash_failovers']} crash failovers, "
        f"{stats['cache_coherence_bypass']} coherence bypasses"
    )
    print(f"  live servers: {', '.join(stats['live_servers'])}")
    print("  ownership map:")
    for server in sorted(stats["ownership"]):
        for tenant, groups in sorted(stats["ownership"][server].items()):
            print(f"    {server}: tenant {tenant} -> groups {groups}")
    print("  per-replica:")
    for name, srv in sorted(stats["servers"].items()):
        print(
            f"    {name}: owned {srv['owned']}, "
            f"in/out rebalances {srv['rebalances_in']}/{srv['rebalances_out']}, "
            f"cache hit ratio {srv['cache_hit_ratio']:.1%} "
            f"({srv['cache_entries']} entries), "
            f"workers alive {srv['workers_alive']}"
        )
    return 0


def run_demo(args) -> int:
    db = build_demo_db(args.vectors, args.dim, args.seed, args.segment_size)
    rng = np.random.default_rng(args.seed + 1)
    queries = rng.standard_normal((args.queries, args.dim)).astype(np.float32)
    config = ServeConfig(
        workers=args.workers,
        enable_batching=not args.no_batching,
        enable_cache=not args.no_cache,
    )
    if getattr(args, "servers", 1) > 1:
        return run_elastic_demo(args, db, queries, config)
    tier = None
    if args.tier_budget_mb is not None:
        tier = db.enable_tiering(budget_bytes=int(args.tier_budget_mb * 1024 * 1024))
        db.vacuum()  # classify segments before serving starts
    telemetry = Telemetry()
    with use_telemetry(telemetry), db, QueryServer(db, config) as server:
        wall, latencies = drive_closed_loop(
            lambda query: server.search(["Item.emb"], query, args.k),
            queries,
            args.concurrency,
        )
        stats = server.stats()

    lat = sorted(latencies)
    p50 = lat[len(lat) // 2]
    p95 = lat[min(len(lat) - 1, int(len(lat) * 0.95))]
    print(
        f"served {len(lat)} queries in {wall:.3f}s  "
        f"({len(lat) / wall:,.0f} QPS, concurrency {args.concurrency})"
    )
    print(f"latency p50 {p50 * 1e3:.2f}ms  p95 {p95 * 1e3:.2f}ms")
    counters = telemetry.registry.snapshot()["counters"]
    for name in sorted(counters):
        if name.startswith("serve."):
            print(f"  {name} = {counters[name]}")
    if stats["cache"] is not None:
        cache = stats["cache"]
        print(
            f"  cache: {cache['hits']} hits / {cache['misses']} misses "
            f"(hit ratio {cache['hit_ratio']:.1%}, {cache['entries']} entries)"
        )
        for tenant in sorted(cache.get("per_tenant", {})):
            part = cache["per_tenant"][tenant]
            print(
                f"    tenant {tenant}: {part['hits']} hits / "
                f"{part['misses']} misses, {part['entries']} entries, "
                f"{part['bytes']} bytes"
            )
    if tier is not None:
        snap = tier.stats_snapshot()
        cold_hits = counters.get("tier.cold_hits", 0)
        print(
            f"  tier: {snap['hot_segments']} hot / {snap['cold_segments']} cold "
            f"segments, {snap['resident_bytes']:,} resident bytes "
            f"(budget {snap['budget_bytes']:,})"
        )
        print(
            f"    {snap['accesses']} accesses, {cold_hits} cold hits, "
            f"{snap['demotions']} demotions, {snap['promotions']} promotions"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve", description="concurrent query-serving demo"
    )
    parser.add_argument("--vectors", type=int, default=2000)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--segment-size", type=int, default=1024)
    parser.add_argument("--queries", type=int, default=400)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--servers",
        type=int,
        default=1,
        help="route through an elastic tier of this many sharded servers",
    )
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-batching", action="store_true")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument(
        "--tier-budget-mb",
        type=float,
        default=None,
        help="enable tiered storage with this hot-tier byte budget (MiB)",
    )
    args = parser.parse_args(argv)
    return run_demo(args)


if __name__ == "__main__":
    sys.exit(main())
