"""repro.serve — the concurrent multi-tenant query-serving layer.

Turns the single-caller engine into a traffic-facing server (the paper's
Sec. 6.3 throughput setting, plus the production-RAG gaps — freshness,
multi-tenancy, QoS — called out by the unified-data-layer paper in
PAPERS.md):

- :class:`QueryServer` — a worker thread pool executing ``VectorSearch()``
  and GSQL statements against live MVCC snapshots;
- :class:`MicroBatcher` — coalesces concurrent same-attribute top-k
  requests, for as long as they keep arriving and within a size/time cap,
  into one fused multi-query segment scan
  (:func:`repro.core.search.vector_search_batch`);
- :class:`ResultCache` / :class:`ServeResultCache` — an LRU, byte-bounded
  result cache keyed by the MVCC watermark of every touched store (so
  commits and vacuum merges invalidate stale entries by construction),
  partitioned per tenant so one tenant's flood cannot evict another's hot
  entries;
- :class:`AdmissionController` / :class:`TokenBucket` /
  :class:`WeightedFairQueue` — bounded queues with deadline-aware
  shedding, per-tenant rate limits and queue shares, and weighted-fair
  scheduling.

The server also exposes a freshness SLA: requests may carry
``max_staleness`` (bounded watermark-TID lag) or a read-your-writes
``session_token`` (a commit TID the serving snapshot must cover) and are
served fresh, or failed with a typed
:class:`~repro.errors.StalenessBoundError` — never silently stale.
"""

from .admission import AdmissionController, TokenBucket
from .batcher import MicroBatcher
from .cache import ResultCache, ServeResultCache
from .server import QueryServer, ServeConfig, ServeFuture
from .tenancy import Tenant, TenantRegistry, WeightedFairQueue

__all__ = [
    "AdmissionController",
    "MicroBatcher",
    "QueryServer",
    "ResultCache",
    "ServeConfig",
    "ServeFuture",
    "ServeResultCache",
    "Tenant",
    "TenantRegistry",
    "TokenBucket",
    "WeightedFairQueue",
]
