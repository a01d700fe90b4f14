"""Capacity model for the elastic tier: ring placement over simulated machines.

The scaling benchmark needs wall-clock-free, reproducible throughput
numbers, so it reuses the calibrated :class:`ClusterSimulator` /
:class:`ClosedLoopLoadGenerator` pair (paper Sec. 6.3) instead of timing
real threads: one simulated machine per :class:`ShardServer`, segments
placed by the *same* bounded-load ring assignment the live tier uses
(:meth:`ConsistentHashRing.balanced_assignment`), every request fanning
to all segment holders like a routed top-k.  Throughput is then gated by
the busiest machine — ``cores / (owned_segments × service_time)`` — so
the balanced placement is exactly what makes added servers buy
near-proportional QPS, and an imbalanced assignment would show up
directly as sublinear scaling in ``BENCH_elastic.json``.
"""

from __future__ import annotations

from ..cluster.coordinator import ClusterSimulator
from ..cluster.loadgen import ClosedLoopLoadGenerator, LoadResult
from ..cluster.machine import Machine
from ..errors import ElasticError
from .ring import ConsistentHashRing

__all__ = ["SimulatedElasticServe"]


class SimulatedElasticServe:
    """N ring-placed shard machines driven by the Poisson load generator."""

    def __init__(
        self,
        num_servers: int,
        num_segments: int = 32,
        group_size: int = 1,
        cores: int = 8,
        vnodes: int = 96,
        segment_service_seconds: float = 0.004,
        dim: int = 128,
        k: int = 10,
        tenant: str = "default",
    ):
        if num_servers < 1:
            raise ElasticError("need at least one server")
        if num_segments < 1:
            raise ElasticError("need at least one segment")
        if segment_service_seconds <= 0:
            raise ElasticError("segment_service_seconds must be positive")
        self.num_servers = int(num_servers)
        self.num_segments = int(num_segments)
        self.group_size = int(group_size)
        self.segment_service_seconds = float(segment_service_seconds)
        self.ring = ConsistentHashRing(vnodes=vnodes)
        names = [f"sim-{i}" for i in range(self.num_servers)]
        for name in names:
            self.ring.add(name)
        num_groups = -(-self.num_segments // self.group_size)  # ceil
        self.placement = self.ring.balanced_assignment(tenant, range(num_groups))
        machines = [Machine(i, cores=cores, segments=[]) for i in range(self.num_servers)]
        index = {name: i for i, name in enumerate(names)}
        for group, server in sorted(self.placement.items()):
            for seg_no in range(
                group * self.group_size,
                min((group + 1) * self.group_size, self.num_segments),
            ):
                machines[index[server]].segments.append(seg_no)
        self.machines = machines
        self.simulator = ClusterSimulator(machines, dim=dim, k=k)

    def segment_counts(self) -> list[int]:
        """Owned-segment count per machine (placement-balance visibility)."""
        return [len(machine.segments) for machine in self.machines]

    def run_open_loop(
        self,
        duration_seconds: float = 3.0,
        target_qps: float = 400.0,
        seed: int = 0,
    ) -> LoadResult:
        """Poisson arrivals at ``target_qps``; each request fans to every segment.

        Driven above capacity, the generator drains the whole backlog and
        the reported QPS converges to the fleet's capacity — the number
        the scaling benchmark compares across server counts.
        """
        sample = {
            seg_no: self.segment_service_seconds
            for seg_no in range(self.num_segments)
        }
        generator = ClosedLoopLoadGenerator(self.simulator, connections=1)
        return generator.run_open_loop(
            [sample],
            duration_seconds=duration_seconds,
            target_qps=target_qps,
            seed=seed,
        )
