"""Capacity model for the elastic tier: ring placement over simulated machines.

The scaling benchmark needs wall-clock-free, reproducible throughput
numbers, so it reuses the calibrated :class:`ClusterSimulator` /
:class:`ClosedLoopLoadGenerator` pair (paper Sec. 6.3) instead of timing
real threads: one simulated machine per :class:`ShardServer`, each
segment (one routing group) placed by the bounded-load ring assignment
the live tier's ``rebalance_evenly`` uses
(:meth:`ConsistentHashRing.balanced_assignment`), every request fanning
to all segment holders like a routed top-k.  The model has two settings,
the server and segment counts; its 8 cores per machine and 4 ms per
segment search are constants.  Throughput is then gated by
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


#: The modelled machine and request: cores per server and the service
#: time of one segment search (the simulator's dim and k are its defaults).
_CORES = 8
_SEGMENT_SERVICE_SECONDS = 0.004


class SimulatedElasticServe:
    """N ring-placed shard machines driven by the Poisson load generator."""

    def __init__(self, num_servers: int, num_segments: int = 32):
        if num_servers < 1:
            raise ElasticError("need at least one server")
        if num_segments < 1:
            raise ElasticError("need at least one segment")
        self.num_servers = int(num_servers)
        self.num_segments = int(num_segments)
        self.ring = ConsistentHashRing()
        names = [f"sim-{i}" for i in range(self.num_servers)]
        for name in names:
            self.ring.add(name)
        self.placement = self.ring.balanced_assignment(
            "default", range(self.num_segments)
        )
        machines = [
            Machine(i, cores=_CORES, segments=[]) for i in range(self.num_servers)
        ]
        index = {name: i for i, name in enumerate(names)}
        for seg_no, server in sorted(self.placement.items()):
            machines[index[server]].segments.append(seg_no)
        self.machines = machines
        self.simulator = ClusterSimulator(machines)

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
        sample = dict.fromkeys(range(self.num_segments), _SEGMENT_SERVICE_SECONDS)
        generator = ClosedLoopLoadGenerator(self.simulator, connections=1)
        return generator.run_open_loop(
            [sample],
            duration_seconds=duration_seconds,
            target_qps=target_qps,
            seed=seed,
        )
