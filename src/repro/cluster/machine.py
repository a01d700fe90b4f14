"""Simulated machines and segment placement."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ClusterError
from ..telemetry import get_telemetry

__all__ = ["Machine", "make_cluster", "segment_holders"]


@dataclass
class Machine:
    """One server: a core count and the segments it hosts.

    Defaults mirror the paper's ``n2d-standard-32`` (32 vCPUs).
    ``alive=False`` models a failed server; the coordinator then routes its
    segments to replica holders (paper Sec. 4.2: high availability via
    embedding-segment replicas distributed across the cluster).
    """

    machine_id: int
    cores: int = 32
    segments: list[int] = field(default_factory=list)
    alive: bool = True
    #: Lifetime count of segment jobs scheduled onto this machine's cores;
    #: purely observational (load-balance visibility in ``repro-stats``).
    jobs_served: int = 0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ClusterError("machine needs at least one core")

    def record_jobs(self, n: int) -> None:
        """Tally ``n`` segment jobs placed on this machine."""
        self.jobs_served += n
        tel = get_telemetry()
        if tel.enabled:
            tel.inc("machine.jobs", n)
            tel.set_gauge(f"machine.{self.machine_id}.jobs_served", self.jobs_served)


def make_cluster(
    num_machines: int,
    num_segments: int,
    cores: int = 32,
    replication_factor: int = 1,
) -> list[Machine]:
    """Round-robin segment placement across machines (vertex-centric
    partitioning distributes segments evenly, Sec. 3).

    With ``replication_factor > 1`` each segment is additionally placed on
    the next ``rf - 1`` machines, so any single-machine failure leaves every
    segment reachable (as long as ``rf >= 2`` and there are >= rf machines).
    """
    if num_machines <= 0:
        raise ClusterError("cluster needs at least one machine")
    if replication_factor < 1:
        raise ClusterError("replication factor must be >= 1")
    if replication_factor > num_machines:
        raise ClusterError("replication factor cannot exceed the machine count")
    machines = [Machine(i, cores=cores) for i in range(num_machines)]
    for seg_no in range(num_segments):
        primary = seg_no % num_machines
        for replica in range(replication_factor):
            machines[(primary + replica) % num_machines].segments.append(seg_no)
    return machines


def segment_holders(machines: list[Machine]) -> dict[int, list[Machine]]:
    """Segment -> replica-holder machines, primary first (placement order).

    The simulated coordinator routes each segment to the least-loaded
    alive holder in this map.
    """
    holders: dict[int, list[Machine]] = {}
    for machine in machines:
        for seg_no in machine.segments:
            holders.setdefault(seg_no, []).append(machine)
    return holders
