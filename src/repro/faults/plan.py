"""Fault plans: declarative, seeded schedules of what goes wrong and when.

A :class:`FaultPlan` is pure data — frozen fault specs plus a seed — so a
plan can be logged, replayed, and swept in a matrix.  A random matrix
(:meth:`FaultPlan.random`) is drawn from ``random.Random(seed)``, so one
seed gives one plan, and every fault fires on a count (a segment attempt,
a dequeue ordinal, a commit), never on the clock: replaying a plan over the
same workload fires the same faults (the property chaos tests assert).

Fault taxonomy (paper Sec. 4.2/5.1 deployment story), each met by the real
code it targets:

- :class:`SegmentFault` — the next N search attempts on one segment raise
  :class:`~repro.errors.FaultInjectionError`; the serving shard's retries
  are the countermeasure.  Installed on a store
  (:meth:`~repro.faults.injector.FaultInjector.install_store`) an attempt
  is one ``search_segment`` call, and a fault that outlives a shard's
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

import random
from dataclasses import dataclass, field

from ..errors import FaultInjectionError

__all__ = [
    "CommitCrashFault",
    "FaultPlan",
    "RETRY_BACKOFF",
    "RETRY_BUDGET",
    "SegmentFault",
    "WorkerCrashFault",
    "WorkerStallFault",
]

#: Attempts per served search (first try + retries); also how many crashed
#: workers a request may pass through before it fails typed.
RETRY_BUDGET = 3
#: Seconds before the first retry; each later retry waits twice as long.
RETRY_BACKOFF = 0.001


@dataclass(frozen=True)
class SegmentFault:
    """The next ``failures`` search attempts on this segment raise."""

    seg_no: int
    failures: int = 1


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
    countermeasure re-queues every batch member (bounded by
    :data:`RETRY_BUDGET`) and respawns a replacement worker.
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
    segment_faults: list[SegmentFault] = field(default_factory=list)
    commit_crashes: list[CommitCrashFault] = field(default_factory=list)
    worker_crashes: list[WorkerCrashFault] = field(default_factory=list)
    worker_stalls: list[WorkerStallFault] = field(default_factory=list)

    # -------------------------------------------------------------- builder
    def fail_segment(self, seg_no: int, failures: int = 1) -> "FaultPlan":
        self.segment_faults.append(SegmentFault(seg_no, failures))
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
        num_segments: int,
        requests: int = 8,
    ) -> "FaultPlan":
        """A random-but-reproducible fault matrix for live chaos sweeps.

        One worker crash and one 5–50 ms worker stall land on dequeue
        ordinals in ``[1, requests]``; two segment faults hit distinct
        segments, each with fewer failures than :data:`RETRY_BUDGET`, so a
        shard's own retries absorb every one of them.
        """
        rng = random.Random(seed)
        plan = cls(seed=seed)
        plan.crash_worker(rng.randint(1, requests))
        plan.stall_worker(rng.randint(1, requests), rng.uniform(0.005, 0.05))
        for seg_no in rng.sample(range(num_segments), k=min(2, num_segments)):
            plan.fail_segment(seg_no, failures=rng.randint(1, RETRY_BUDGET - 1))
        return plan
