"""Fault plans: declarative, seeded schedules of what goes wrong and when.

A :class:`FaultPlan` is pure data — frozen fault specs plus a seed — so a
plan can be logged, replayed, and swept in a matrix.  All nondeterminism
(random drop decisions, random matrices) flows from ``random.Random(seed)``
inside the :class:`~repro.faults.injector.FaultInjector`, which is what makes
two runs of the same plan over the same workload produce byte-identical
event traces (the acceptance property chaos tests assert).

Fault taxonomy (paper Sec. 4.2/5.1 deployment story):

- :class:`CrashFault` — a simulated machine dies (and optionally recovers)
  at a simulated time (:class:`~repro.cluster.coordinator.ClusterSimulator`).
- :class:`StragglerFault` — a machine runs slow by a multiplier for a time
  window; the hedging policy is the countermeasure.
- :class:`NetworkFault` — dispatch drop probability and extra per-hop
  latency over a time window; retries are the countermeasure.
- :class:`SegmentFault` — the next N search attempts on one segment raise
  :class:`~repro.errors.FaultInjectionError`; retry/failover is the
  countermeasure.  In the simulator an attempt is a placement; installed on
  a real store (:meth:`~repro.faults.injector.FaultInjector.install_store`)
  it is one ``search_segment`` call, and a fault that outlives a shard's
  retries costs an ``ElasticTier`` query only that segment's group: the
  query fails typed with :class:`~repro.errors.PartialResultError`.
- :class:`CommitCrashFault` — the process dies mid-commit (torn WAL append,
  or after the WAL append with ops only partially applied); WAL replay is
  the countermeasure.
- :class:`WorkerCrashFault` / :class:`WorkerStallFault` — a serve-tier
  worker thread dies (or stalls) right after dequeuing a request, keyed by
  the server's dequeue ordinal; the countermeasure is the
  :class:`~repro.serve.QueryServer` re-queueing the in-flight batch and
  respawning a replacement worker, so no accepted request is ever lost.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..errors import FaultInjectionError

__all__ = [
    "CommitCrashFault",
    "CrashFault",
    "FaultPlan",
    "NetworkFault",
    "SegmentFault",
    "StragglerFault",
    "WorkerCrashFault",
    "WorkerStallFault",
]


@dataclass(frozen=True)
class CrashFault:
    """Machine death at sim-time ``at``, and optional recovery at ``recover_at``."""

    machine_id: int
    at: float | None = None
    recover_at: float | None = None

    def __post_init__(self) -> None:
        if self.at is None:
            raise FaultInjectionError("crash fault needs 'at'")


@dataclass(frozen=True)
class StragglerFault:
    """Machine ``machine_id`` runs ``factor``x slower during [start, end)."""

    machine_id: int
    factor: float
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise FaultInjectionError("straggler factor must be >= 1")


@dataclass(frozen=True)
class NetworkFault:
    """Lossy/slow network during [start, end)."""

    drop_probability: float = 0.0
    extra_latency: float = 0.0
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise FaultInjectionError("drop probability must be in [0, 1]")


@dataclass(frozen=True)
class SegmentFault:
    """The next ``failures`` search attempts on this segment raise.

    ``machine_id`` restricts the fault to one replica holder (None hits
    whichever machine attempts the segment), so a plan can model either a
    corrupt replica (failover fixes it) or a poisoned segment (only retries
    on the same data can drain it).
    """

    seg_no: int
    failures: int = 1
    machine_id: int | None = None


@dataclass(frozen=True)
class CommitCrashFault:
    """Process crash during the ``at_commit``-th observed commit (1-based).

    Modes map to the three interesting crash points of the WAL-before-apply
    protocol:

    - ``"torn-wal"``: die mid-append, leaving a torn trailing record (only
      ``torn_fraction`` of the record's bytes hit the file) — the
      transaction is NOT durable and replay must drop the tail.
    - ``"post-wal"``: die right after the append, before any op applies —
      the transaction IS durable and replay must reproduce it in full.
    - ``"mid-apply"``: die after ``after_ops`` ops applied in memory — same
      durability as post-wal, but the abandoned instance is torn; recovery
      must come from the log, not the wreck.
    """

    at_commit: int
    mode: str = "torn-wal"
    after_ops: int = 1
    torn_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in ("torn-wal", "post-wal", "mid-apply"):
            raise FaultInjectionError(f"unknown commit-crash mode '{self.mode}'")
        if not 0.0 < self.torn_fraction < 1.0:
            raise FaultInjectionError("torn_fraction must be in (0, 1)")


@dataclass(frozen=True)
class WorkerCrashFault:
    """A serve worker thread dies at the ``at_request``-th dequeue (1-based).

    The crash lands *after* the worker pulled its request (and collected a
    micro-batch around it) but *before* execution — the moment an
    unprotected server would simply lose the in-flight work.  The server's
    countermeasure re-queues every batch member (bounded by the resilience
    policy's ``max_attempts``) and respawns a replacement worker.
    """

    at_request: int

    def __post_init__(self) -> None:
        if self.at_request < 1:
            raise FaultInjectionError("worker crash ordinal must be >= 1")


@dataclass(frozen=True)
class WorkerStallFault:
    """A serve worker sleeps ``seconds`` at the ``at_request``-th dequeue.

    Models a straggling worker (GC pause, noisy CPU neighbor) holding a
    dequeued batch.  Other workers keep draining the queue; the stalled
    batch either completes late or fails typed at its deadline.
    """

    at_request: int
    seconds: float

    def __post_init__(self) -> None:
        if self.at_request < 1:
            raise FaultInjectionError("worker stall ordinal must be >= 1")
        if self.seconds <= 0:
            raise FaultInjectionError("worker stall seconds must be positive")


@dataclass
class FaultPlan:
    """A seeded schedule of faults; feed it to a :class:`FaultInjector`."""

    seed: int = 0
    crashes: list[CrashFault] = field(default_factory=list)
    stragglers: list[StragglerFault] = field(default_factory=list)
    network: list[NetworkFault] = field(default_factory=list)
    segment_faults: list[SegmentFault] = field(default_factory=list)
    commit_crashes: list[CommitCrashFault] = field(default_factory=list)
    worker_crashes: list[WorkerCrashFault] = field(default_factory=list)
    worker_stalls: list[WorkerStallFault] = field(default_factory=list)

    # -------------------------------------------------------------- builder
    def crash(self, machine_id: int, at: float | None = None,
              recover_at: float | None = None) -> "FaultPlan":
        self.crashes.append(CrashFault(machine_id, at, recover_at))
        return self

    def straggle(self, machine_id: int, factor: float, start: float = 0.0,
                 end: float = math.inf) -> "FaultPlan":
        self.stragglers.append(StragglerFault(machine_id, factor, start, end))
        return self

    def degrade_network(self, drop_probability: float = 0.0, extra_latency: float = 0.0,
                        start: float = 0.0, end: float = math.inf) -> "FaultPlan":
        self.network.append(NetworkFault(drop_probability, extra_latency, start, end))
        return self

    def fail_segment(self, seg_no: int, failures: int = 1,
                     machine_id: int | None = None) -> "FaultPlan":
        self.segment_faults.append(SegmentFault(seg_no, failures, machine_id))
        return self

    def crash_commit(self, at_commit: int, mode: str = "torn-wal", after_ops: int = 1,
                     torn_fraction: float = 0.5) -> "FaultPlan":
        self.commit_crashes.append(CommitCrashFault(at_commit, mode, after_ops, torn_fraction))
        return self

    def crash_worker(self, at_request: int) -> "FaultPlan":
        self.worker_crashes.append(WorkerCrashFault(at_request))
        return self

    def stall_worker(self, at_request: int, seconds: float) -> "FaultPlan":
        self.worker_stalls.append(WorkerStallFault(at_request, seconds))
        return self

    # ------------------------------------------------------- random matrix
    @classmethod
    def random(
        cls,
        seed: int,
        num_machines: int,
        num_segments: int,
        duration: float = 2.0,
        crashes: int = 1,
        stragglers: int = 1,
        segment_faults: int = 2,
        max_segment_failures: int = 2,
    ) -> "FaultPlan":
        """A random-but-reproducible fault matrix for chaos sweeps.

        Crash windows are serialized (each machine recovers before the next
        crash begins) so a replication factor of 2 is always sufficient to
        keep every segment reachable — the property the chaos tests assert.
        """
        rng = random.Random(seed)
        plan = cls(seed=seed)
        window = duration / max(1, crashes)
        victims = rng.sample(range(num_machines), k=min(crashes, num_machines))
        for i, machine_id in enumerate(victims):
            start = i * window + rng.uniform(0.05, 0.3) * window
            end = min((i + 0.9) * window, start + rng.uniform(0.2, 0.6) * window)
            plan.crash(machine_id, at=start, recover_at=end)
        for _ in range(stragglers):
            machine_id = rng.randrange(num_machines)
            start = rng.uniform(0.0, duration * 0.7)
            plan.straggle(
                machine_id,
                factor=rng.uniform(2.0, 10.0),
                start=start,
                end=start + rng.uniform(0.1, 0.4) * duration,
            )
        for _ in range(segment_faults):
            plan.fail_segment(
                rng.randrange(max(1, num_segments)),
                failures=rng.randint(1, max_segment_failures),
            )
        return plan
