"""wrk2-like closed-loop load generator (paper Sec. 6.3).

The paper's sender machine keeps 320 connections over 16 threads busy with
randomly selected query vectors, enough to saturate throughput.  The
simulated equivalent: ``connections`` closed-loop clients, each issuing its
next request the moment the previous one completes, for a simulated
``duration``.  Per-request segment service times are drawn (round-robin)
from a pool of measured samples so CPU-cache effects of identical payloads
don't flatter the results — mirroring the paper's random-payload choice.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from ..errors import ClusterError
from .coordinator import ClusterSimulator

__all__ = ["ClosedLoopLoadGenerator", "LoadResult"]


@dataclass
class LoadResult:
    """Throughput/latency outcome of one simulated load run."""

    qps: float
    completed: int
    duration_seconds: float
    mean_latency_seconds: float
    p50_latency_seconds: float
    p99_latency_seconds: float
    connections: int
    #: Open-loop runs only: the Poisson arrival rate that was offered.
    #: Every arrival completes, so ``completed`` counts the arrivals.
    target_qps: float | None = None


class ClosedLoopLoadGenerator:
    """Drives a :class:`ClusterSimulator` with closed-loop connections."""

    def __init__(self, simulator: ClusterSimulator, connections: int = 320):
        if connections <= 0:
            raise ClusterError("need at least one connection")
        self.simulator = simulator
        self.connections = connections

    def run(
        self,
        sample_segment_seconds: list[dict[int, float]],
        duration_seconds: float = 10.0,
    ) -> LoadResult:
        """Simulate ``duration_seconds`` of closed-loop load.

        ``sample_segment_seconds`` is a pool of measured per-query samples
        (segment -> seconds); requests cycle through it round-robin.
        """
        if not sample_segment_seconds:
            raise ClusterError("need at least one measured sample")
        self.simulator.reset()
        samples = itertools.cycle(sample_segment_seconds)
        # Event heap holds (completion_time, seq, issue_time).
        events: list[tuple[float, int, float]] = []
        seq = itertools.count()
        for _ in range(self.connections):
            issue = 0.0
            done = self.simulator.simulate_request(issue, next(samples))
            heapq.heappush(events, (done, next(seq), issue))
        latencies: list[float] = []
        now = 0.0
        while events:
            done, _, issued = heapq.heappop(events)
            now = done
            latencies.append(done - issued)
            if done < duration_seconds:
                next_done = self.simulator.simulate_request(done, next(samples))
                heapq.heappush(events, (next_done, next(seq), done))
        return _load_result(latencies, max(now, duration_seconds), self.connections)

    def run_open_loop(
        self,
        sample_segment_seconds: list[dict[int, float]],
        duration_seconds: float = 10.0,
        target_qps: float = 1000.0,
        seed: int = 0,
    ) -> LoadResult:
        """Seeded open-loop (Poisson-arrival) load at ``target_qps``.

        Unlike the closed loop, arrivals do not wait for completions, so a
        target above capacity builds a genuine backlog and the reported QPS
        converges to the cluster's capacity.  Inter-arrival gaps are
        exponential draws from ``numpy.random.default_rng(seed)``, so runs
        are reproducible.
        """
        if not sample_segment_seconds:
            raise ClusterError("need at least one measured sample")
        if target_qps <= 0:
            raise ClusterError("target_qps must be positive")
        self.simulator.reset()
        samples = itertools.cycle(sample_segment_seconds)
        rng = np.random.default_rng(seed)
        latencies: list[float] = []
        last_done = 0.0
        arrival = 0.0
        while True:
            arrival += rng.exponential(1.0 / target_qps)
            if arrival >= duration_seconds:
                break
            done = self.simulator.simulate_request(arrival, next(samples))
            latencies.append(done - arrival)
            last_done = max(last_done, done)
        return _load_result(
            latencies,
            max(last_done, duration_seconds),
            0,
            target_qps=target_qps,
        )


def _load_result(
    latencies: list[float],
    horizon: float,
    connections: int,
    target_qps: float | None = None,
) -> LoadResult:
    lat = np.asarray(latencies)
    return LoadResult(
        qps=len(latencies) / horizon,
        completed=len(latencies),
        duration_seconds=horizon,
        mean_latency_seconds=float(lat.mean()) if lat.size else 0.0,
        p50_latency_seconds=float(np.percentile(lat, 50)) if lat.size else 0.0,
        p99_latency_seconds=float(np.percentile(lat, 99)) if lat.size else 0.0,
        connections=connections,
        target_qps=target_qps,
    )
