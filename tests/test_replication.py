"""Tests for segment replication and failover (paper Sec. 4.2)."""

import pytest

from repro.cluster import ClosedLoopLoadGenerator, ClusterSimulator, make_cluster
from repro.errors import ClusterError


def seg_times(n, each=0.002):
    return {s: each for s in range(n)}


class TestPlacement:
    def test_rf2_places_each_segment_twice(self):
        machines = make_cluster(4, 8, replication_factor=2)
        holder_count = {}
        for m in machines:
            for s in m.segments:
                holder_count[s] = holder_count.get(s, 0) + 1
        assert all(count == 2 for count in holder_count.values())

    def test_replicas_on_distinct_machines(self):
        machines = make_cluster(4, 8, replication_factor=3)
        for s in range(8):
            holders = [m.machine_id for m in machines if s in m.segments]
            assert len(set(holders)) == 3

    def test_rf_validation(self):
        with pytest.raises(ClusterError):
            make_cluster(2, 4, replication_factor=0)
        with pytest.raises(ClusterError):
            make_cluster(2, 4, replication_factor=3)


class TestFailover:
    def test_requests_survive_single_failure_with_rf2(self):
        sim = ClusterSimulator(make_cluster(4, 8, cores=4, replication_factor=2))
        before = sim.simulate_request(0.0, seg_times(8))
        sim.fail_machine(2)
        sim.reset()
        after = sim.simulate_request(0.0, seg_times(8))
        assert after > 0  # still serviceable
        # fewer machines share the same work: latency should not improve
        assert after >= before * 0.9

    def test_failure_without_replicas_is_fatal(self):
        sim = ClusterSimulator(make_cluster(4, 8, cores=4, replication_factor=1))
        sim.fail_machine(1)
        with pytest.raises(ClusterError, match="no alive replica"):
            sim.simulate_request(0.0, seg_times(8))

    def test_recover_machine(self):
        sim = ClusterSimulator(make_cluster(2, 4, cores=4, replication_factor=1))
        sim.fail_machine(1)
        sim.recover_machine(1)
        assert sim.simulate_request(0.0, seg_times(4)) > 0

    def test_unknown_machine(self):
        sim = ClusterSimulator(make_cluster(2, 4))
        with pytest.raises(ClusterError):
            sim.fail_machine(99)

    def test_throughput_degrades_gracefully(self):
        """Losing 1 of 4 machines costs throughput but not availability."""
        samples = [seg_times(16, each=0.003)]
        healthy = ClusterSimulator(make_cluster(4, 16, cores=4, replication_factor=2))
        degraded = ClusterSimulator(make_cluster(4, 16, cores=4, replication_factor=2))
        degraded.fail_machine(3)
        q_healthy = ClosedLoopLoadGenerator(healthy, connections=32).run(
            samples, duration_seconds=2.0
        ).qps
        q_degraded = ClosedLoopLoadGenerator(degraded, connections=32).run(
            samples, duration_seconds=2.0
        ).qps
        assert 0.5 < q_degraded / q_healthy < 1.02

    def test_no_duplicate_segment_work_with_replicas(self):
        """Each segment is searched once per request even with RF=3."""
        sim = ClusterSimulator(make_cluster(3, 3, cores=1, replication_factor=3))
        # 3 segments x 10ms, 3 machines x 1 core: if each segment ran on all
        # replicas, per-machine work would be 30ms; correct assignment is
        # ~10ms/machine -> total latency close to 10ms + overheads.
        done = sim.simulate_request(0.0, seg_times(3, each=0.010))
        assert done < 0.025


class TestRecoveryCycles:
    def test_recover_then_refail_cycles(self):
        """Machines can fail, recover, and re-fail repeatedly; with RF=2 a
        single down machine never makes a request unserviceable."""
        sim = ClusterSimulator(make_cluster(4, 8, cores=4, replication_factor=2))
        for cycle in range(3):
            victim = 1 + cycle  # a different machine each cycle
            sim.fail_machine(victim)
            sim.reset()
            assert sim.simulate_request(0.0, seg_times(8)) > 0
            sim.recover_machine(victim)
            sim.reset()
            assert sim.simulate_request(0.0, seg_times(8)) > 0

    def test_refailure_of_recovered_machine(self):
        sim = ClusterSimulator(make_cluster(2, 4, cores=4, replication_factor=2))
        sim.fail_machine(1)
        sim.recover_machine(1)
        sim.fail_machine(1)  # re-failure after recovery routes around again
        sim.reset()
        assert sim.simulate_request(0.0, seg_times(4)) > 0
        assert sim.machines[1].jobs_served == 0  # every segment ran on machine 0

    def test_all_replicas_down_raises(self):
        """When every holder of a segment is dead the request must fail
        loudly, both in assignment and in the full pipeline."""
        machines = make_cluster(4, 8, cores=4, replication_factor=2)
        sim = ClusterSimulator(machines)
        for machine_id in [m.machine_id for m in machines if 0 in m.segments]:
            sim.fail_machine(machine_id)
        with pytest.raises(ClusterError, match="no alive replica"):
            sim._assign_segments(seg_times(8))
        with pytest.raises(ClusterError, match="no alive replica"):
            sim.simulate_request(0.0, seg_times(8))

    def test_empty_request_raises(self):
        """An empty assignment is a caller bug: refuse to invent a latency."""
        sim = ClusterSimulator(make_cluster(2, 4))
        with pytest.raises(ClusterError, match="empty assignment"):
            sim.simulate_request(0.0, {})
