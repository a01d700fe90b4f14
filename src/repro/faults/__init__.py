"""Deterministic fault injection and the served path's retry budget.

The paper's deployment story (Sec. 4.2, 5.1) leans on segment replication
and an MPP coordinator that keeps serving under machine loss.  This package
is the machinery that *tests* that story on the served path: seeded fault
plans (:class:`FaultPlan`), a runtime injector with a reproducible event
trace (:class:`FaultInjector`), and the two retry constants the served path
reads: a search that raised an injected fault is tried up to
:data:`RETRY_BUDGET` times, the first retry after :data:`RETRY_BACKOFF`
seconds and each later one after twice the last, and a request re-queued by
crashed workers fails typed after the same budget.  A request's deadline is
``ServeConfig.deadline``'s, not a setting here.
:meth:`FaultInjector.install_store` makes a store's segment searches raise,
serve workers crash or stall on plan, and an
:class:`~repro.elastic.ElasticTier` moves a stopped server's keys to its
ring successor and answers a segment group lost past its shard's retries
with a typed :class:`~repro.errors.PartialResultError`.

Typical chaos harness::

    plan = FaultPlan.random(seed=7, num_segments=4)
    FaultInjector(plan).install_store(db.service.store("Post", "content_emb"))
    tier = ElasticTier(db, num_servers=2, injectors={"shard-0": FaultInjector(plan)})
    with tier:
        ...  # search; stop a shard mid-run; compare with db.vector_search
"""

from .injector import FaultInjector, TraceEvent
from .plan import (
    RETRY_BACKOFF,
    RETRY_BUDGET,
    CommitCrashFault,
    FaultPlan,
    SegmentFault,
    WorkerCrashFault,
    WorkerStallFault,
)

__all__ = [
    "CommitCrashFault",
    "FaultInjector",
    "FaultPlan",
    "RETRY_BACKOFF",
    "RETRY_BUDGET",
    "SegmentFault",
    "TraceEvent",
    "WorkerCrashFault",
    "WorkerStallFault",
]
