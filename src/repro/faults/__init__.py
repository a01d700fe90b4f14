"""Deterministic fault injection + resilience policies (availability layer).

The paper's deployment story (Sec. 4.2, 5.1) leans on segment replication
and an MPP coordinator that keeps serving under machine loss.  This package
is the machinery that *tests* that story: seeded fault plans
(:class:`FaultPlan`), a runtime injector with a reproducible event trace
(:class:`FaultInjector`), and the resilience knobs
(:class:`ResiliencePolicy`, :class:`CircuitBreaker`).  Machine crashes,
stragglers, lossy networks, replicas, hedging and the breaker play out in
the cluster model (:class:`~repro.cluster.coordinator.ClusterSimulator`).
The served path meets real faults: :meth:`FaultInjector.install_store` makes
a store's segment searches raise, serve workers crash or stall on plan, and
an :class:`~repro.elastic.ElasticTier` answers a segment group lost past its
shard's retries with a typed :class:`~repro.errors.PartialResultError`.

Typical chaos harness::

    plan = FaultPlan.random(seed=7, num_machines=4, num_segments=16)
    injector = FaultInjector(plan)
    sim = ClusterSimulator(
        make_cluster(4, 16, replication_factor=2),
        injector=injector,
        policy=ResiliencePolicy(allow_partial=True, deadline=0.05),
    )
    ...  # drive load; inspect injector.trace and per-query coverage
"""

from .injector import FaultInjector, TraceEvent
from .plan import (
    CommitCrashFault,
    CrashFault,
    FaultPlan,
    NetworkFault,
    SegmentFault,
    StragglerFault,
    WorkerCrashFault,
    WorkerStallFault,
)
from .resilience import CircuitBreaker, ResiliencePolicy

__all__ = [
    "CircuitBreaker",
    "CommitCrashFault",
    "CrashFault",
    "FaultInjector",
    "FaultPlan",
    "NetworkFault",
    "ResiliencePolicy",
    "SegmentFault",
    "StragglerFault",
    "TraceEvent",
    "WorkerCrashFault",
    "WorkerStallFault",
]
