"""Canonical instrument catalog.

Instrument names are dotted ``subsystem.measurement`` strings; registries
create them lazily so this catalog is documentation plus bucket presets,
not a registration requirement.  Keeping the names here (and only here)
gives ``repro-stats`` and the docs one source of truth, and lets
``bucket_preset`` route count-shaped histograms (distance computations,
hops, delta sizes) onto count buckets instead of latency buckets.
"""

from __future__ import annotations

from .metrics import DEFAULT_COUNT_BUCKETS, DEFAULT_LATENCY_BUCKETS

__all__ = ["INSTRUMENTS", "bucket_preset"]

#: name -> (kind, description).  Kind is "counter" | "gauge" | "histogram".
INSTRUMENTS: dict[str, tuple[str, str]] = {
    # ---- query layer -----------------------------------------------------
    "query.slow": ("counter", "queries over the slow-query threshold"),
    # ---- HNSW ------------------------------------------------------------
    "hnsw.searches": ("counter", "HNSW top-k searches"),
    "hnsw.row_reuses": ("counter", "updates that rewrote their id's existing row (unlink, repair, wire with the batch)"),
    "hnsw.distance_computations": ("histogram", "distance computations per search"),
    "hnsw.hops": (
        "histogram",
        "expansion rounds per search (each expands up to ef // ROUND_SHARE candidates), plus upper-layer greedy moves",
    ),
    "hnsw.ef_expansions": ("histogram", "effective ef (candidate expansions) per search"),
    "hnsw.search_seconds": ("histogram", "single-segment HNSW search latency"),
    # ---- MVCC / vacuum ---------------------------------------------------
    "vacuum.delta_size": ("histogram", "delta records merged per delta_merge"),
    "vacuum.delta_merge_seconds": ("histogram", "stage-1 delta merge duration"),
    "vacuum.index_merge_seconds": ("histogram", "stage-2 index merge duration"),
    "vacuum.versions_reclaimed": ("counter", "MVCC snapshot versions reclaimed"),
    "vacuum.records_merged": ("counter", "delta records flushed into segments"),
    "vacuum.quota_deferrals": (
        "counter",
        "store merges deferred a round because the owning tenant hit its quota",
    ),
    # ---- WAL -------------------------------------------------------------
    "wal.records": ("counter", "WAL records appended"),
    "wal.flushes": ("counter", "WAL buffer flushes"),
    "wal.fsyncs": ("counter", "fsync-equivalent durability barriers"),
    "wal.replayed_records": ("counter", "records recovered during replay"),
    "wal.replay_truncated": ("counter", "replays stopped at a torn tail"),
    "wal.replay_corrupt": ("counter", "replays aborted on mid-file corruption"),
    # ---- GSQL ------------------------------------------------------------
    "gsql.queries": ("counter", "GSQL statements executed"),
    "gsql.parse_seconds": ("histogram", "GSQL parse phase"),
    "gsql.plan_seconds": ("histogram", "GSQL analyze+plan phase"),
    "gsql.execute_seconds": ("histogram", "GSQL execute phase"),
    "gsql.query_seconds": ("histogram", "GSQL whole-statement latency"),
    "gsql.pushdown_columnar": ("counter", "alias pre-filters answered by column kernels"),
    "gsql.pushdown_rowwise": ("counter", "alias pre-filters that fell back to per-row evaluation"),
    # ---- cluster simulator ----------------------------------------------
    "coordinator.requests": ("counter", "simulated coordinator requests"),
    "machine.jobs": ("counter", "segment jobs scheduled onto machine cores"),
    # ---- resilience ------------------------------------------------------
    "resilience.retries": ("counter", "segment search retries after injected faults"),
    "resilience.degraded_queries": ("counter", "queries answered with coverage < 1"),
    # ---- serving ---------------------------------------------------------
    "serve.requests": ("counter", "requests submitted to the query server"),
    "serve.completed": ("counter", "requests answered (including typed failures)"),
    "serve.shed": ("counter", "requests rejected by admission control"),
    "serve.shed_queue_full": ("counter", "admission rejections: bounded queue full"),
    "serve.shed_rate_limited": ("counter", "admission rejections: tenant token bucket empty"),
    "serve.deadline_timeouts": ("counter", "requests deadline-failed before execution"),
    "serve.batches": ("counter", "micro-batches executed by workers"),
    "serve.fused_queries": ("counter", "queries answered via the fused batch kernel"),
    "serve.cache_hits": ("counter", "result-cache hits"),
    "serve.cache_misses": ("counter", "result-cache misses"),
    "serve.cache_evictions": ("counter", "result-cache LRU evictions"),
    "serve.cache_bypass_commit_race": (
        "counter",
        "results served uncached: watermark outran the pinned snapshot mid-commit",
    ),
    "serve.shed_tenant_share": (
        "counter",
        "admission rejections: tenant exceeded its queue-share bound",
    ),
    "serve.staleness_rejections": (
        "counter",
        "requests failed typed: max_staleness unmet within the wait budget",
    ),
    "serve.staleness_waits": (
        "counter",
        "snapshot re-pins while waiting for a fresh-enough snapshot",
    ),
    "serve.session_token_rejections": (
        "counter",
        "requests failed typed: session token never covered by a snapshot",
    ),
    "serve.session_token_waits": (
        "counter",
        "snapshot re-pins while waiting for a token-covering snapshot",
    ),
    "serve.worker_crashes": ("counter", "injected serve-worker crashes"),
    "serve.worker_respawns": ("counter", "replacement workers spawned after a crash"),
    "serve.worker_requeues": (
        "counter",
        "in-flight requests re-queued after their worker crashed",
    ),
    "serve.worker_stalls": ("counter", "injected serve-worker stalls (stragglers)"),
    "serve.batch_poison_degrades": (
        "counter",
        "fused batches degraded to per-query execution after injected faults",
    ),
    "serve.deadline_reorders": (
        "counter",
        "dequeues where a near-deadline request overtook an earlier arrival",
    ),
    "serve.queue_depth": ("gauge", "requests waiting in the weighted-fair queue"),
    "serve.batch_size": ("histogram", "requests fused per executed micro-batch"),
    "serve.queue_wait_seconds": ("histogram", "submit-to-dequeue queue wait"),
    "serve.batch_wait_seconds": (
        "histogram",
        "time one batch collection spent blocked waiting for further riders",
    ),
    "serve.batch_close_full": ("counter", "batch collections closed at max_batch"),
    "serve.batch_close_quiet": (
        "counter",
        "batch collections closed because arrivals fell behind the batch's own cadence",
    ),
    "serve.batch_close_cap": (
        "counter",
        "batch collections closed by the batch_window_seconds hard cap",
    ),
    "serve.batch_close_deadline": (
        "counter",
        "batch collections closed early for a request in hand that was due",
    ),
    "serve.batch_close_lone": (
        "counter",
        "batch collections that found nothing compatible queued and ran at once",
    ),
    "serve.latency_seconds": ("histogram", "submit-to-answer serving latency"),
    # ---- elastic serve tier ---------------------------------------------
    "elastic.routed_requests": ("counter", "queries routed through the elastic tier"),
    "elastic.shard_requests": ("counter", "partial sub-requests dispatched to shards"),
    "elastic.route_retries": (
        "counter",
        "sub-requests re-routed after an ownership race or server crash",
    ),
    "elastic.rebalances": ("counter", "completed live segment-group handoffs"),
    "elastic.rebalance_drain_waits": (
        "counter",
        "waits for in-flight requests to drain before a handoff transfer",
    ),
    "elastic.handoff_gate_waits": (
        "counter",
        "routed requests gated behind an in-progress handoff",
    ),
    "elastic.cache_coherence_bypass": (
        "counter",
        "fan-outs shipped cache_ok=False: watermark outran the routed snapshot",
    ),
    "elastic.crash_failovers": ("counter", "servers failed out of the ring"),
    "elastic.servers": ("gauge", "live servers in the elastic tier"),
}

#: histogram names that count things rather than time them
_COUNT_SHAPED = (
    "hnsw.distance_computations",
    "hnsw.hops",
    "hnsw.ef_expansions",
    "vacuum.delta_size",
    "serve.batch_size",
)


def bucket_preset(name: str) -> tuple[float, ...]:
    """Default bucket layout for a histogram name (latency unless count-shaped)."""
    if name in _COUNT_SHAPED:
        return DEFAULT_COUNT_BUCKETS
    return DEFAULT_LATENCY_BUCKETS


def describe(name: str) -> str:
    kind_desc = INSTRUMENTS.get(name)
    return kind_desc[1] if kind_desc else ""
