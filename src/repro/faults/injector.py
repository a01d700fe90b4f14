"""Runtime fault injection with a deterministic event trace.

:class:`FaultInjector` compiles a :class:`~repro.faults.plan.FaultPlan` into
mutable runtime state (remaining segment failures, crash flags, a seeded
RNG) and exposes the hooks the query/durability paths consult:

- the cluster simulator calls :meth:`advance`, :meth:`slowdown`,
  :meth:`drop_dispatch`, :meth:`extra_network_delay`, :meth:`crash_during`,
  and :meth:`segment_attempt_fails`;
- :meth:`install_store` gates an
  :class:`~repro.core.service.EmbeddingStore`'s segment searches through
  :meth:`raise_segment_fault`, so every real search path (``db.vector_search``,
  a ``QueryServer``, an ``ElasticTier`` shard) meets the injected segment
  exceptions;
- serve workers call :meth:`worker_crash_due` and
  :meth:`worker_stall_seconds`;
- the durability side installs :meth:`install_commit_faults` on a
  :class:`~repro.graph.storage.GraphStore` (mid-commit crashes).

Every injected fault — and every countermeasure the resilience layer takes
(retry, failover, hedge, deadline cut, breaker transition) — is recorded as
a :class:`TraceEvent`.  The trace is a pure function of (plan seed,
workload), so identical seeds reproduce identical traces; chaos tests
assert that equality directly.

An injector is single-use per workload run: build a fresh one (same plan)
to replay.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from ..errors import FaultInjectionError, SimulatedCrash
from .plan import FaultPlan

__all__ = ["FaultInjector", "TraceEvent"]


@dataclass(frozen=True)
class TraceEvent:
    """One observed fault or resilience action, in injection order."""

    at: float
    kind: str
    machine_id: int | None = None
    seg_no: int | None = None
    attempt: int | None = None
    detail: str = ""


class _ClaimedFaultState:
    """Fault budgets that concurrent threads claim from one injector.

    Serve workers race on the serve-worker crash/stall one-shots, and the
    segment searches of a store gated by :meth:`FaultInjector.install_store`
    race on the per-segment failure counts (a shard's segment fan-out and
    every worker of every shard reach the same gate).  The simulator hooks,
    by contrast, are driven single-threaded per workload.  The budgets
    therefore live here, behind one leaf lock, keeping
    :class:`FaultInjector`'s own mutations single-threaded by contract.
    Methods *claim* due faults atomically and return them; the injector
    records trace events after the lock is released.
    """

    def __init__(self, segment_faults) -> None:
        self._lock = threading.Lock()
        self._crashes_fired: set[int] = set()
        self._stalls_fired: set[int] = set()
        # Remaining injected failures per (seg_no, machine_id-or-None).
        self._segment_remaining: dict[tuple[int, int | None], int] = {}
        for fault in segment_faults:
            key = (fault.seg_no, fault.machine_id)
            self._segment_remaining[key] = (
                self._segment_remaining.get(key, 0) + fault.failures
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

    def claim_segment_failure(self, seg_no: int, machine_id: int) -> bool:
        """Atomically consume one injected failure for this segment attempt."""
        with self._lock:
            for key in ((seg_no, machine_id), (seg_no, None)):
                remaining = self._segment_remaining.get(key, 0)
                if remaining > 0:
                    self._segment_remaining[key] = remaining - 1
                    return True
        return False


class FaultInjector:
    """Stateful executor of one :class:`FaultPlan` over one workload."""

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan or FaultPlan()
        self.rng = random.Random(self.plan.seed)
        self.trace: list[TraceEvent] = []
        self._crashed: set[int] = set()
        self._recovered: set[int] = set()
        self._straggle_announced: set[int] = set()
        self._commit_count = 0
        self._apply_calls = 0
        self._graph_store = None
        self._claims = _ClaimedFaultState(self.plan.segment_faults)

    # ---------------------------------------------------------------- trace
    def record(
        self,
        kind: str,
        at: float = 0.0,
        machine_id: int | None = None,
        seg_no: int | None = None,
        attempt: int | None = None,
        detail: str = "",
    ) -> None:
        """Append one event; the resilience layer records through this too."""
        self.trace.append(TraceEvent(at, kind, machine_id, seg_no, attempt, detail))

    def trace_kinds(self) -> list[str]:
        return [event.kind for event in self.trace]

    # ------------------------------------------------------- machine faults
    def advance(self, machines, now: float) -> None:
        """Apply sim-time crash/recover events due at or before ``now``."""
        by_id = {m.machine_id: m for m in machines}
        for i, fault in enumerate(self.plan.crashes):
            machine = by_id.get(fault.machine_id)
            if machine is None:
                continue
            if i not in self._crashed and now >= fault.at:
                self._crashed.add(i)
                machine.alive = False
                self.record("crash", at=fault.at, machine_id=fault.machine_id)
            if (
                fault.recover_at is not None
                and i in self._crashed
                and i not in self._recovered
                and now >= fault.recover_at
            ):
                self._recovered.add(i)
                machine.alive = True
                self.record("recover", at=fault.recover_at, machine_id=fault.machine_id)

    def crash_during(self, machine, arrive: float, finish: float) -> float | None:
        """Crash time if ``machine`` dies inside [arrive, finish), else None.

        Applies the crash (marks the machine dead) so the caller's failover
        reroutes to live replicas and later requests see it down too.
        """
        for i, fault in enumerate(self.plan.crashes):
            if fault.machine_id != machine.machine_id:
                continue
            if i in self._crashed:
                continue
            if arrive <= fault.at < finish:
                self._crashed.add(i)
                machine.alive = False
                self.record("crash", at=fault.at, machine_id=fault.machine_id)
                return fault.at
        return None

    def slowdown(self, machine_id: int, now: float) -> float:
        """Combined straggler multiplier active on this machine at ``now``."""
        factor = 1.0
        for i, fault in enumerate(self.plan.stragglers):
            if fault.machine_id != machine_id:
                continue
            if fault.start <= now < fault.end:
                factor *= fault.factor
                if i not in self._straggle_announced:
                    self._straggle_announced.add(i)
                    self.record(
                        "straggle",
                        at=fault.start,
                        machine_id=machine_id,
                        detail=f"factor={fault.factor:g}",
                    )
        return factor

    # ------------------------------------------------------- network faults
    def drop_dispatch(self, machine_id: int, now: float) -> bool:
        """Seeded Bernoulli: is this dispatch lost on the wire?"""
        for fault in self.plan.network:
            if fault.drop_probability <= 0.0 or not fault.start <= now < fault.end:
                continue
            if self.rng.random() < fault.drop_probability:
                self.record("drop", at=now, machine_id=machine_id)
                return True
        return False

    def extra_network_delay(self, now: float) -> float:
        return sum(
            fault.extra_latency
            for fault in self.plan.network
            if fault.start <= now < fault.end
        )

    # ------------------------------------------------------- segment faults
    def segment_attempt_fails(
        self, seg_no: int, machine_id: int, attempt: int, now: float = 0.0
    ) -> bool:
        """Consume one injected failure for this segment attempt, if any.

        Thread-safe: concurrent searches through an installed store gate
        never fire more failures than the plan holds.
        """
        if not self._claims.claim_segment_failure(seg_no, machine_id):
            return False
        self.record(
            "segment-fault",
            at=now,
            machine_id=machine_id,
            seg_no=seg_no,
            attempt=attempt,
        )
        return True

    def raise_segment_fault(
        self, seg_no: int, machine_id: int, attempt: int, now: float = 0.0
    ) -> None:
        """Real-path hook: raise instead of returning a flag."""
        if self.segment_attempt_fails(seg_no, machine_id, attempt, now=now):
            raise FaultInjectionError(
                f"injected search failure: segment {seg_no} on machine "
                f"{machine_id} (attempt {attempt})"
            )

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
        injector = self

        def gate(seg_no: int) -> None:
            injector.raise_segment_fault(seg_no, machine_id=-1, attempt=0)

        store.fault_hook = gate

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
