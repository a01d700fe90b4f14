"""Snapshot-keyed LRU result cache.

Keys (:meth:`~repro.core.search.SearchSpec.cache_key`) embed the MVCC
watermark (:meth:`EmbeddingStore.watermark`) of every store the query
touches, read *before* the executing snapshot is taken.
Any commit, delta merge, or index merge on a touched store perturbs its
watermark, so stale entries become unreachable rather than needing
explicit invalidation.

A commit can interleave with the watermark-read -> snapshot-pin sequence
in two ways, and they are not symmetric:

- *Commit fully publishes in between* (watermark read pre-commit,
  snapshot post-commit): benign.  The entry is merely fresher than its
  key claims, and the commit's own watermark bump guarantees no later
  lookup ever matches the stale key.
- *Commit is mid-publication* (the embedding hook has already appended
  delta records — bumping ``delta_store.max_tid``, a watermark
  component — but ``last_tid`` is not yet published): the worker reads a
  post-commit watermark yet pins a pre-commit snapshot.  Caching that
  result would serve the pre-commit top-k to every post-commit lookup.
  The server therefore reads the watermarks, pins, and only then
  touches the cache (:func:`~repro.serve.server.freshness_gate`): if any
  watermark TID component (:meth:`EmbeddingStore.watermark_tid`) exceeds
  the snapshot's TID (the gate's ``lag > 0``), the cache is neither
  probed nor filled and the result is served uncached
  (``serve.cache_bypass_commit_race``).

Because every put passes that validation, a hit is always consistent: the
entry was computed on a snapshot at least as new as every TID in its key.

Values are the sorted ``(distance, vertex_type, vid)`` triples from
:func:`repro.core.search.vector_search_merged` — immutable, and carrying
the distances needed to re-fill a caller's distance map on a hit.  Each
entry records the *kernel* that produced it: ``"hnsw"`` per-query
(every explicit-``ef`` request among them), ``"fused"`` exact batch scan
(default-``ef`` batches; never worse than the per-query HNSW answer,
distances equal up to BLAS reduction order in the last ulp), or
``"shard"`` for an elastic shard's partial.

The cache is a lock leaf: methods never call into the engine or telemetry
while holding the lock; :meth:`put` returns the eviction count so the
caller can record metrics outside it.

:class:`ServeResultCache` composes one :class:`ResultCache` per tenant so
one tenant's churn can never evict another tenant's hot entries; the
server routes every probe/fill through the caller's partition.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..analysis.hooks import schedule_point
from ..errors import ServeError

__all__ = ["ResultCache", "ServeResultCache"]

# Rough per-entry accounting: a (dist, vtype, vid) triple plus dict/key
# overhead.  Exactness doesn't matter — the bound just has to scale with
# actual retained data.
_TRIPLE_BYTES = 64
_ENTRY_OVERHEAD = 256


class ResultCache:
    """LRU cache of top-k triples, bounded by bytes and entry count."""

    def __init__(self, max_bytes: int = 32 << 20, max_entries: int = 1024):
        if max_bytes < 1 or max_entries < 1:
            raise ServeError("cache bounds must be positive")
        self.max_bytes = int(max_bytes)
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @staticmethod
    def _estimate(key: tuple, value: tuple) -> int:
        """Bytes held: the query bytes of a
        :meth:`~repro.core.search.SearchSpec.cache_key` and the triples."""
        return len(key[3]) + _TRIPLE_BYTES * len(value) + _ENTRY_OVERHEAD

    def get(self, key: tuple):
        """The cached triples, or ``None``; records hit/miss internally."""
        schedule_point("serve.cache.get")
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def put(self, key: tuple, value: tuple, kernel: str = "hnsw") -> int:
        """Insert (or refresh) an entry; returns how many LRU evictions ran.

        ``kernel`` records which execution path produced the value (see the
        module docstring) for the ``kernels`` count of :meth:`stats`.
        """
        nbytes = self._estimate(key, value)
        schedule_point("serve.cache.put")
        evicted = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, nbytes, kernel)
            self._bytes += nbytes
            while self._entries and (
                self._bytes > self.max_bytes or len(self._entries) > self.max_entries
            ):
                _, (_, dropped, _) = self._entries.popitem(last=False)
                self._bytes -= dropped
                evicted += 1
            self._evictions += evicted
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            lookups = self._hits + self._misses
            kernels: dict[str, int] = {}
            for _, _, kernel in self._entries.values():
                kernels[kernel] = kernels.get(kernel, 0) + 1
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_ratio": (self._hits / lookups) if lookups else 0.0,
                "kernels": kernels,
            }


class ServeResultCache:
    """Per-tenant partitioned result cache (noisy-neighbor isolation).

    One :class:`ResultCache` partition per tenant, created lazily on first
    use and bounded *individually*: tenant B churning through thousands of
    distinct queries can only evict entries from B's own partition, so
    tenant A's hot entries — and with them A's hit rate and latency — are
    untouched by B's flood.  Each partition is bounded by a quarter of the
    totals and at most four partitions are kept, so the totals bound their
    sum: a fifth tenant's first use drops the least recently used
    partition whole (a server rarely has more than a handful of hot
    tenants; a tenant explosion degrades hit rates, never correctness).
    A dropped partition's hits, misses and evictions (its entries counted
    as evicted) stay in the aggregate :meth:`stats`.

    Same locking stance as :class:`ResultCache`: partitions are lock
    leaves, and the partition map has its own leaf lock that never nests
    inside a partition's.
    """

    _SPLIT = 4

    def __init__(self, max_bytes: int = 32 << 20, max_entries: int = 1024):
        if max_bytes < 1 or max_entries < 1:
            raise ServeError("cache bounds must be positive")
        self.partition_max_bytes = max(1, int(max_bytes) // self._SPLIT)
        self.partition_max_entries = max(1, int(max_entries) // self._SPLIT)
        self._lock = threading.Lock()
        self._partitions: OrderedDict[str, ResultCache] = OrderedDict()
        self._retired = {"hits": 0, "misses": 0, "evictions": 0}  # dropped partitions'

    def partition(self, tenant_name: str) -> ResultCache:
        """The tenant's partition, created on first use; when all ``_SPLIT``
        slots are taken the least recently used partition is dropped."""
        dropped = None
        with self._lock:
            part = self._partitions.get(tenant_name)
            if part is not None:
                self._partitions.move_to_end(tenant_name)
                return part
            if len(self._partitions) >= self._SPLIT:
                _, dropped = self._partitions.popitem(last=False)
            part = ResultCache(self.partition_max_bytes, self.partition_max_entries)
            self._partitions[tenant_name] = part
        if dropped is not None:
            stats = dropped.stats()  # outside the map lock: both stay leaves
            with self._lock:
                self._retired["hits"] += stats["hits"]
                self._retired["misses"] += stats["misses"]
                self._retired["evictions"] += stats["evictions"] + stats["entries"]
        return part

    def get(self, tenant_name: str, key: tuple):
        return self.partition(tenant_name).get(key)

    def put(self, tenant_name: str, key: tuple, value: tuple, kernel: str = "hnsw") -> int:
        return self.partition(tenant_name).put(key, value, kernel=kernel)

    def clear(self) -> None:
        with self._lock:
            partitions = list(self._partitions.values())
        for part in partitions:
            part.clear()

    def __len__(self) -> int:
        with self._lock:
            partitions = list(self._partitions.values())
        return sum(len(part) for part in partitions)

    def stats(self) -> dict:
        """Aggregate stats plus a ``per_tenant`` breakdown.

        Aggregate keys match :meth:`ResultCache.stats` so callers written
        against the unpartitioned cache keep working unchanged.
        """
        with self._lock:
            partitions = dict(self._partitions)
            total = {"entries": 0, "bytes": 0, **self._retired}
        per_tenant = {name: part.stats() for name, part in sorted(partitions.items())}
        kernels: dict[str, int] = {}
        for stats in per_tenant.values():
            for field in total:
                total[field] += stats[field]
            for kernel, count in stats["kernels"].items():
                kernels[kernel] = kernels.get(kernel, 0) + count
        lookups = total["hits"] + total["misses"]
        total["hit_ratio"] = (total["hits"] / lookups) if lookups else 0.0
        total["kernels"] = kernels
        total["per_tenant"] = per_tenant
        return total
