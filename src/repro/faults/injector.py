"""Runtime fault injection with a deterministic event trace.

:class:`FaultInjector` compiles a :class:`~repro.faults.plan.FaultPlan` into
mutable runtime state (remaining segment failures, fired worker faults,
the commit count) and exposes the hooks the query/durability paths consult:

- :meth:`install_store` gates an
  :class:`~repro.core.service.EmbeddingStore`'s segment searches through
  :meth:`raise_segment_fault`, so every real search path (``db.vector_search``,
  a ``QueryServer``, an ``ElasticTier`` shard) meets the injected segment
  exceptions;
- serve workers call :meth:`worker_crash_due` and
  :meth:`worker_stall_seconds`;
- the durability side installs :meth:`install_commit_faults` on a
  :class:`~repro.graph.storage.GraphStore` (mid-commit crashes).

Every injected fault is recorded as a :class:`TraceEvent`.  Each fault
fires on a count, never on the clock, so identical seeds over the same
workload fire the same faults; chaos tests assert that directly.  The
countermeasures (retries, re-queues, re-routes) show in telemetry
counters, not in the trace.

An injector is single-use per workload run: build a fresh one (same plan)
to replay.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..errors import FaultInjectionError, SimulatedCrash
from .plan import FaultPlan

__all__ = ["FaultInjector", "TraceEvent"]


@dataclass(frozen=True)
class TraceEvent:
    """One injected fault, in injection order."""

    at: float
    kind: str
    seg_no: int | None = None
    detail: str = ""


class _ClaimedFaultState:
    """Fault budgets that concurrent threads claim from one injector.

    Serve workers race on the serve-worker crash/stall one-shots, and the
    segment searches of a store gated by :meth:`FaultInjector.install_store`
    race on the per-segment failure counts (a shard's segment fan-out and
    every worker of every shard reach the same gate).  The budgets
    therefore live here, behind one leaf lock.  Methods *claim* due faults
    atomically and return them; the injector records trace events after
    the lock is released.
    """

    def __init__(self, segment_faults) -> None:
        self._lock = threading.Lock()
        self._crashes_fired: set[int] = set()
        self._stalls_fired: set[int] = set()
        # Remaining injected failures per segment.
        self._segment_remaining: dict[int, int] = {}
        for fault in segment_faults:
            self._segment_remaining[fault.seg_no] = (
                self._segment_remaining.get(fault.seg_no, 0) + fault.failures
            )

    def claim_crash(self, faults, ordinal: int) -> bool:
        """Atomically claim the first unfired crash due at ``ordinal``."""
        with self._lock:
            for i, fault in enumerate(faults):
                if i in self._crashes_fired or ordinal < fault.at_request:
                    continue
                self._crashes_fired.add(i)
                return True
        return False

    def claim_stalls(self, faults, ordinal: int) -> list:
        """Atomically claim every unfired stall due at ``ordinal``."""
        with self._lock:
            due = []
            for i, fault in enumerate(faults):
                if i in self._stalls_fired or ordinal < fault.at_request:
                    continue
                self._stalls_fired.add(i)
                due.append(fault)
            return due

    def claim_segment_failure(self, seg_no: int) -> bool:
        """Atomically consume one injected failure for this segment attempt."""
        with self._lock:
            remaining = self._segment_remaining.get(seg_no, 0)
            if remaining > 0:
                self._segment_remaining[seg_no] = remaining - 1
                return True
        return False


class FaultInjector:
    """Stateful executor of one :class:`FaultPlan` over one workload."""

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan or FaultPlan()
        self.trace: list[TraceEvent] = []
        self._commit_count = 0
        self._apply_calls = 0
        self._graph_store = None
        self._claims = _ClaimedFaultState(self.plan.segment_faults)

    # ---------------------------------------------------------------- trace
    def record(
        self,
        kind: str,
        at: float = 0.0,
        seg_no: int | None = None,
        detail: str = "",
    ) -> None:
        """Append one event."""
        self.trace.append(TraceEvent(at, kind, seg_no, detail))

    def trace_kinds(self) -> list[str]:
        return [event.kind for event in self.trace]

    # ------------------------------------------------------- segment faults
    def segment_attempt_fails(self, seg_no: int) -> bool:
        """Consume one injected failure for this segment attempt, if any.

        Thread-safe: concurrent searches through an installed store gate
        never fire more failures than the plan holds.
        """
        if not self._claims.claim_segment_failure(seg_no):
            return False
        self.record("segment-fault", seg_no=seg_no)
        return True

    def raise_segment_fault(self, seg_no: int) -> None:
        """Store-gate hook: raise instead of returning a flag."""
        if self.segment_attempt_fails(seg_no):
            raise FaultInjectionError(f"injected search failure: segment {seg_no}")

    # ------------------------------------------------- serve-worker faults
    def worker_crash_due(self, ordinal: int) -> bool:
        """Should the worker that just made dequeue ``ordinal`` die now?

        Each planned :class:`~repro.faults.plan.WorkerCrashFault` fires at
        most once, at the first dequeue whose ordinal reaches its
        ``at_request``.  Thread-safe: serve workers race on this.
        """
        if not self._claims.claim_crash(self.plan.worker_crashes, ordinal):
            return False
        self.record("worker-crash", at=float(ordinal), detail=f"ordinal={ordinal}")
        return True

    def worker_stall_seconds(self, ordinal: int) -> float:
        """Total injected stall for the worker at dequeue ``ordinal``.

        Zero when no planned :class:`~repro.faults.plan.WorkerStallFault`
        is due; each fault fires once.
        """
        due = self._claims.claim_stalls(self.plan.worker_stalls, ordinal)
        for fault in due:
            self.record(
                "worker-stall",
                at=float(ordinal),
                detail=f"ordinal={ordinal} seconds={fault.seconds:g}",
            )
        return sum(fault.seconds for fault in due)

    # ---------------------------------------------------- durability faults
    def install_store(self, store) -> None:
        """Route an EmbeddingStore's search path through the segment gate."""
        store.fault_hook = self.raise_segment_fault

    def install_commit_faults(self, graph_store) -> None:
        """Arm mid-commit crashes on a GraphStore (see CommitCrashFault)."""
        self._graph_store = graph_store
        graph_store.set_commit_failpoint(self._commit_failpoint)

    def _commit_failpoint(self, stage: str, tid: int) -> None:
        if stage == "pre-wal":
            self._commit_count += 1
            self._apply_calls = 0
        fault = next(
            (f for f in self.plan.commit_crashes if f.at_commit == self._commit_count),
            None,
        )
        if fault is None:
            return
        if fault.mode == "torn-wal" and stage == "pre-wal":
            # Arm the WAL: the append itself writes a torn prefix and dies.
            self.record("commit-crash", detail=f"torn-wal tid={tid}")
            self._graph_store.wal.arm_torn_write(fraction=fault.torn_fraction)
        elif fault.mode == "post-wal" and stage == "post-wal":
            self.record("commit-crash", detail=f"post-wal tid={tid}")
            raise SimulatedCrash(f"injected crash after WAL append (tid {tid})")
        elif fault.mode == "mid-apply" and stage == "apply":
            self._apply_calls += 1
            if self._apply_calls == fault.after_ops + 1:
                self.record("commit-crash", detail=f"mid-apply tid={tid}")
                raise SimulatedCrash(
                    f"injected crash after applying {fault.after_ops} op(s) "
                    f"of tid {tid}"
                )
