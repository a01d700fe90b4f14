"""Tests for the cluster simulation: machines, network, coordinator, loadgen."""

import random

import pytest

from repro.cluster import (
    ClosedLoopLoadGenerator,
    ClusterSimulator,
    NEPTUNE_1024_MNCU,
    NetworkModel,
    TIGERVECTOR_N2D,
    make_cluster,
    measure_samples,
)
from repro.core import action
from repro.core.search import (
    merge_sharded_topk,
    vector_search_sharded,
)
from repro.errors import ClusterError

ATTR = "Post.content_emb"


class TestMachines:
    def test_round_robin_placement(self):
        machines = make_cluster(3, 10)
        assert [len(m.segments) for m in machines] == [4, 3, 3]
        assert machines[0].segments == [0, 3, 6, 9]

    def test_invalid_config(self):
        with pytest.raises(ClusterError):
            make_cluster(0, 4)

    def test_default_cores_match_paper_hardware(self):
        machines = make_cluster(1, 1)
        assert machines[0].cores == 32  # n2d-standard-32


class TestNetworkModel:
    def test_transfer_includes_latency_and_bandwidth(self):
        net = NetworkModel(latency_seconds=1e-4, bandwidth_bytes_per_second=1e9)
        assert net.transfer_seconds(0) == pytest.approx(1e-4)
        assert net.transfer_seconds(10**9) == pytest.approx(1.0 + 1e-4)

    def test_payload_sizes(self):
        net = NetworkModel()
        assert net.query_dispatch_bytes(128) == 4 * 128 + 128
        assert net.result_bytes(10) == 12 * 10 + 64


class TestCosts:
    def test_paper_cost_ratio(self):
        """Sec 6.2: Neptune hardware is 22.42x more expensive."""
        ratio = NEPTUNE_1024_MNCU.cost_ratio(TIGERVECTOR_N2D)
        assert ratio == pytest.approx(22.42, rel=0.01)


class TestClusterSimulator:
    def segment_times(self, num_segments, each=0.001):
        return {seg: each for seg in range(num_segments)}

    def test_single_machine_trace(self):
        sim = ClusterSimulator(make_cluster(1, 4, cores=4))
        trace = sim.trace(self.segment_times(4))
        # 4 segments x 1ms on 4 cores ~ 1ms + overheads, no network
        assert 0.001 < trace.total_seconds < 0.002
        assert trace.network_seconds == 0.0

    def test_more_machines_cut_latency(self):
        times = self.segment_times(16, each=0.002)
        lat = []
        for n in (1, 2, 4):
            sim = ClusterSimulator(make_cluster(n, 16, cores=2))
            lat.append(sim.trace(times).total_seconds)
        assert lat[0] > lat[1] > lat[2]

    def test_network_hop_charged_for_workers_only(self):
        times = self.segment_times(2, each=0.001)
        sim = ClusterSimulator(make_cluster(2, 2, cores=4))
        trace = sim.trace(times)
        assert trace.network_seconds > 0

    def test_concurrent_requests_queue(self):
        sim = ClusterSimulator(make_cluster(1, 1, cores=1))
        times = {0: 0.01}
        first = sim.simulate_request(0.0, times)
        second = sim.simulate_request(0.0, times)
        assert second > first  # one core: the second request waits

    def test_reset_clears_queues(self):
        sim = ClusterSimulator(make_cluster(1, 1, cores=1))
        times = {0: 0.01}
        a = sim.simulate_request(0.0, times)
        sim.reset()
        b = sim.simulate_request(0.0, times)
        assert a == pytest.approx(b)

    def test_needs_machines(self):
        with pytest.raises(ClusterError):
            ClusterSimulator([])


class TestGoldenCompletionTimes:
    """Fig. 9/10 model output, pinned bit for bit.

    The floats were captured from the model before its resilience loop was
    removed; any change to placement, scheduling, hops or merge shows here.
    """

    RF1 = [
        0.004146418840709888, 0.006445362038817419, 0.0095442080926724,
        0.012260207420370593, 0.014252321524773303, 0.016479955085194654,
        0.019235720452875495, 0.020281868664684084,
    ]
    RF2_MACHINE_1_FAILED = [
        0.004146418840709888, 0.006340223992720237, 0.00872816932546964,
        0.01218752960973596, 0.013103481861037417, 0.014952905461727064,
        0.016902405842655826, 0.019889615609298607,
    ]

    @staticmethod
    def stream(sim, seed=9):
        rng = random.Random(seed)
        start, done = 0.0, []
        for _ in range(8):
            start += rng.uniform(0.0, 0.002)
            sample = {seg: rng.uniform(0.0005, 0.003) for seg in range(8)}
            done.append(sim.simulate_request(start, sample))
        return done

    def test_rf1(self):
        sim = ClusterSimulator(make_cluster(3, 8, cores=2))
        assert self.stream(sim) == self.RF1

    def test_rf2_with_failed_machine(self):
        sim = ClusterSimulator(make_cluster(4, 8, cores=2, replication_factor=2))
        sim.fail_machine(1)
        assert self.stream(sim) == self.RF2_MACHINE_1_FAILED


class TestLoadGenerator:
    def test_throughput_scales_with_machines(self):
        """The fig-9 mechanism: doubling machines nearly doubles QPS."""
        times = [{seg: 0.004 for seg in range(16)}]
        qps = []
        for n in (1, 2, 4):
            sim = ClusterSimulator(make_cluster(n, 16, cores=8))
            gen = ClosedLoopLoadGenerator(sim, connections=64)
            qps.append(gen.run(times, duration_seconds=2.0).qps)
        assert 1.5 < qps[1] / qps[0] <= 2.2
        assert 1.5 < qps[2] / qps[1] <= 2.2

    def test_latency_percentiles_ordered(self):
        sim = ClusterSimulator(make_cluster(2, 8, cores=4))
        gen = ClosedLoopLoadGenerator(sim, connections=16)
        out = gen.run([{seg: 0.001 for seg in range(8)}], duration_seconds=1.0)
        assert out.p50_latency_seconds <= out.p99_latency_seconds
        assert out.completed > 0
        assert out.qps > 0

    def test_needs_samples(self):
        sim = ClusterSimulator(make_cluster(1, 1))
        gen = ClosedLoopLoadGenerator(sim, connections=1)
        with pytest.raises(ClusterError):
            gen.run([], duration_seconds=0.1)

    def test_needs_connections(self):
        sim = ClusterSimulator(make_cluster(1, 1))
        with pytest.raises(ClusterError):
            ClosedLoopLoadGenerator(sim, connections=0)

    def test_samples_cycled(self):
        """Alternating cheap/expensive samples -> intermediate mean latency."""
        sim = ClusterSimulator(make_cluster(1, 1, cores=4))
        gen = ClosedLoopLoadGenerator(sim, connections=1)
        cheap = {0: 0.001}
        costly = {0: 0.009}
        out = gen.run([cheap, costly], duration_seconds=1.0)
        assert 0.002 < out.mean_latency_seconds < 0.008


class TestSegmentFanOut:
    """The coordinator merge of per-segment top-k is split-invariant, and the
    Fig. 9/10 sampler times every segment of the real store."""

    def test_results_invariant_to_group_split(self, loaded_post_db):
        """Local top-k per group set + global merge equals the whole answer."""
        db = loaded_post_db
        q = db._test_vectors[33]
        results = []
        with db.snapshot() as snap:
            for split in ([{0, 1, 2, 3}], [{0, 2}, {1, 3}], [{0}, {1}, {2}, {3}]):
                parts = [
                    vector_search_sharded(
                        db.service, snap, [ATTR], q, 5, ef=128, groups=frozenset(groups)
                    )
                    for groups in split
                ]
                results.append(merge_sharded_topk(parts, 5))
        assert results[0] == results[1] == results[2]
        assert len(results[0]) == 5

    def test_measures_per_segment_times(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        query = db._test_vectors[0]
        with db.snapshot() as snap:
            samples, results = measure_samples(store, [query], 5, snap.tid)
            want, _ = action.topk(store, query, 5, snap.tid)
        assert set(samples[0]) == {0, 1, 2, 3}
        assert all(t > 0 for t in samples[0].values())
        assert results[0].ids.tolist() == [vid for _, vid in want]
        assert results[0].distances.tolist() == [dist for dist, _ in want]
