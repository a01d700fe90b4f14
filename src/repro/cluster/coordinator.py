"""Coordinator/worker query execution model (paper Figure 5).

The coordinator prepares top-k requests in a send queue and dispatches them
to worker machines; each worker searches its local segments in parallel
across its cores and returns (id, distance) pairs to the coordinator's
response pool for the final merge.

:class:`ClusterSimulator` replays *measured* per-segment service times
through that pipeline.  Machines are greedy multi-core schedulers: a task's
segment searches are list-scheduled onto the machine's earliest-free cores,
which approximates the real thread-pool behaviour and keeps the simulation
fast enough to drive millions of simulated requests.

Replicas (paper Sec. 4.2): with a replication factor above one, each
segment runs on the least-loaded alive holder, so :meth:`fail_machine`
reroutes a dead machine's segments and the model shows the failover
capacity.  The model is a cost model only; retries, worker crashes and
lost segment groups play out on the served path
(:class:`~repro.elastic.ElasticTier`, exercised by ``repro.faults``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..errors import ClusterError
from ..telemetry import get_telemetry
from .machine import Machine, segment_holders
from .network import NetworkModel

__all__ = ["ClusterSimulator", "QueryTrace"]


@dataclass
class QueryTrace:
    """Latency decomposition of one request on an idle cluster."""

    total_seconds: float
    dispatch_seconds: float
    per_machine_seconds: dict[int, float]
    network_seconds: float
    merge_seconds: float


class ClusterSimulator:
    """Replays segment service times through the coordinator/worker pipeline."""

    def __init__(
        self,
        machines: list[Machine],
        network: NetworkModel | None = None,
        dim: int = 128,
        k: int = 10,
        coordinator_overhead: float = 5e-5,
        merge_per_machine: float = 8e-6,
    ):
        if not machines:
            raise ClusterError("simulator needs at least one machine")
        self.machines = machines
        self.network = network or NetworkModel()
        self.dim = dim
        self.k = k
        self.coordinator_overhead = coordinator_overhead
        self.merge_per_machine = merge_per_machine
        # Earliest-free timestamps, one heap entry per core per machine.
        self._core_free: dict[int, list[float]] = {
            m.machine_id: [0.0] * m.cores for m in machines
        }
        for heap in self._core_free.values():
            heapq.heapify(heap)
        self._machine_by_id = {m.machine_id: m for m in machines}
        # segment -> machines holding a replica (paper Sec. 4.2: replicas
        # make high availability straightforward).
        self._holders = segment_holders(machines)

    def fail_machine(self, machine_id: int) -> None:
        """Mark a machine dead; its segments route to replica holders."""
        machine = self._machine_by_id.get(machine_id)
        if machine is None:
            raise ClusterError(f"no machine {machine_id}")
        machine.alive = False

    def recover_machine(self, machine_id: int) -> None:
        """Bring a machine back into placement."""
        machine = self._machine_by_id.get(machine_id)
        if machine is None:
            raise ClusterError(f"no machine {machine_id}")
        machine.alive = True

    def _assign_segments(self, segment_seconds: dict[int, float]) -> dict[int, list[int]]:
        """Pick one alive replica holder per segment (least-loaded first).

        Returns machine_id -> segment list.  Raises when a segment has no
        alive holder (data loss: replication factor too low).
        """
        assignment: dict[int, list[int]] = {}
        pending: dict[int, float] = {}  # work tentatively placed this request
        for seg_no, duration in segment_seconds.items():
            holders = [m for m in self._holders.get(seg_no, []) if m.alive]
            if not holders:
                raise ClusterError(
                    f"segment {seg_no} has no alive replica (increase the "
                    f"replication factor)"
                )
            chosen = min(
                holders,
                key=lambda m: (
                    self._core_free[m.machine_id][0]
                    + pending.get(m.machine_id, 0.0) / m.cores
                ),
            )
            assignment.setdefault(chosen.machine_id, []).append(seg_no)
            pending[chosen.machine_id] = pending.get(chosen.machine_id, 0.0) + duration
        return assignment

    def reset(self) -> None:
        for machine in self.machines:
            heap = [0.0] * machine.cores
            heapq.heapify(heap)
            self._core_free[machine.machine_id] = heap

    # ----------------------------------------------------------- scheduling
    def _schedule_jobs(
        self, machine_id: int, arrive: float, durations: list[float]
    ) -> float:
        """List-schedule jobs onto a machine's cores; returns finish time."""
        self._machine_by_id[machine_id].record_jobs(len(durations))
        heap = self._core_free[machine_id]
        finish = arrive
        for duration in durations:
            core_free = heapq.heappop(heap)
            start = max(arrive, core_free)
            end = start + duration
            heapq.heappush(heap, end)
            finish = max(finish, end)
        return finish

    def simulate_request(
        self, start_time: float, segment_seconds: dict[int, float]
    ) -> float:
        """Completion time of one request entering at ``start_time``.

        ``segment_seconds`` maps segment number -> measured local search
        time.  Each segment runs on exactly one alive replica holder; the
        coordinator is machine 0 and doubles as a worker (Sec. 5.1), so its
        subtask skips the network hop.  Raises :class:`ClusterError` for an
        empty request or a segment with no alive holder.
        """
        if not segment_seconds:
            raise ClusterError(
                "request has no segments to dispatch (empty assignment); "
                "refusing to fabricate a latency"
            )
        tel = get_telemetry()
        with tel.span(
            "coordinator.request",
            start_time=start_time,
            segments=len(segment_seconds),
        ):
            dispatched = start_time + self.coordinator_overhead
            out_hop = self.network.transfer_seconds(self.network.query_dispatch_bytes(self.dim))
            back_hop = self.network.transfer_seconds(self.network.result_bytes(self.k))
            assignment = self._assign_segments(segment_seconds)
            respond = []
            for machine_id, segments in assignment.items():
                is_coordinator = machine_id == 0
                arrive = dispatched if is_coordinator else dispatched + out_hop
                with tel.span(
                    "machine.execute", machine_id=machine_id, segments=segments
                ) as mspan:
                    finish = self._schedule_jobs(
                        machine_id, arrive, [segment_seconds[seg] for seg in segments]
                    )
                    mspan.set(simulated_finish=finish)
                respond.append(finish if is_coordinator else finish + back_hop)
            tel.inc("coordinator.requests")
        return max(respond) + self.merge_per_machine * len(assignment)

    def trace(self, segment_seconds: dict[int, float]) -> QueryTrace:
        """One request on an idle cluster, with latency decomposition."""
        self.reset()
        total = self.simulate_request(0.0, segment_seconds)
        out_bytes = self.network.query_dispatch_bytes(self.dim)
        back_bytes = self.network.result_bytes(self.k)
        per_machine = {}
        responders = 0
        for machine in self.machines:
            seconds = sum(
                segment_seconds.get(seg, 0.0) for seg in machine.segments
            )
            if seconds > 0:
                per_machine[machine.machine_id] = seconds
                responders += 1
        network = (
            self.network.transfer_seconds(out_bytes)
            + self.network.transfer_seconds(back_bytes)
            if len(self.machines) > 1
            else 0.0
        )
        self.reset()
        return QueryTrace(
            total_seconds=total,
            dispatch_seconds=self.coordinator_overhead,
            per_machine_seconds=per_machine,
            network_seconds=network,
            merge_seconds=self.merge_per_machine * max(responders, 1),
        )
