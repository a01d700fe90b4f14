"""Deterministic fault injection + resilience policies (availability layer).

The paper's deployment story (Sec. 4.2, 5.1) leans on segment replication
and an MPP coordinator that keeps serving under machine loss.  This package
is the machinery that *tests* that story on the served path: seeded fault
plans (:class:`FaultPlan`), a runtime injector with a reproducible event
trace (:class:`FaultInjector`), and the retry/deadline knobs
(:class:`ResiliencePolicy`).  :meth:`FaultInjector.install_store` makes a
store's segment searches raise, serve workers crash or stall on plan, and
an :class:`~repro.elastic.ElasticTier` moves a stopped server's keys to its
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
    CommitCrashFault,
    FaultPlan,
    SegmentFault,
    WorkerCrashFault,
    WorkerStallFault,
)
from .resilience import ResiliencePolicy

__all__ = [
    "CommitCrashFault",
    "FaultInjector",
    "FaultPlan",
    "ResiliencePolicy",
    "SegmentFault",
    "TraceEvent",
    "WorkerCrashFault",
    "WorkerStallFault",
]
