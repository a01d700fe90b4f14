"""Telemetry through the distributed query paths.

The acceptance scenario for the observability layer: a distributed top-k
under a seeded straggler plan must produce a trace tree with coordinator /
machine spans *including the hedged duplicate dispatch*, and the metrics
snapshot must report the hedge counter.  Hedging lives in the cluster
model (:class:`ClusterSimulator`); the served path (:class:`ElasticTier`)
reports a degraded query in the same counters.  A last battery pins the
contract that telemetry never changes results.
"""

import json

import pytest

from repro.cluster import ClusterSimulator, make_cluster
from repro.elastic import ElasticTier
from repro.errors import PartialResultError
from repro.faults import FaultInjector, FaultPlan, ResiliencePolicy
from repro.graph.accumulators import MapAccum
from repro.telemetry import (
    NullTelemetry,
    Telemetry,
    format_span_tree,
    use_telemetry,
)

ATTR = "Post.content_emb"
SEGMENTS = 4


def seg_times(each=0.002):
    return {seg_no: each for seg_no in range(SEGMENTS)}


class TestStragglerTrace:
    """A hedged request leaves a complete trace and counts its hedges."""

    @pytest.fixture
    def hedged(self):
        # Machine 0 — the coordinator, which keeps its own replicas' jobs —
        # straggles 10^4x for the whole run; with rf=2 machine 1 holds every
        # segment too, and hedge_after=50ms is far below 2ms * 10^4.
        injector = FaultInjector(
            FaultPlan(seed=31).straggle(0, factor=1e4, start=0.0, end=100.0)
        )
        sim = ClusterSimulator(
            make_cluster(2, SEGMENTS, cores=4, replication_factor=2),
            injector=injector,
            policy=ResiliencePolicy(hedge_after=0.05),
        )
        return sim, injector

    def test_trace_tree_contains_hedge_span(self, hedged):
        sim, injector = hedged
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            outcome = sim.simulate_request_outcome(0.0, seg_times())

        assert outcome.hedges >= 1
        assert "hedge" in injector.trace_kinds()

        trace = telemetry.last_trace()
        assert trace.name == "coordinator.request"
        machines = trace.find("machine.execute")
        hedgespans = trace.find("hedge.dispatch")
        assert machines
        assert len(hedgespans) == outcome.hedges
        # The duplicate dispatch names both parties of the race.
        hedge = hedgespans[0]
        assert hedge.attrs["primary"] == 0
        assert hedge.attrs["machine_id"] == 1
        assert hedge in trace.children
        assert trace.attrs["hedges"] == outcome.hedges
        # The rendered tree is what README shows; it must mention the hedge.
        assert "hedge.dispatch" in format_span_tree(trace)

    def test_snapshot_reports_hedge_counter(self, hedged):
        sim, _ = hedged
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            for start in (0.0, 1.0, 2.0):
                sim.simulate_request_outcome(start, seg_times())
        snapshot = telemetry.registry.snapshot()
        assert snapshot["counters"]["resilience.hedges"] >= 3
        assert snapshot["counters"]["coordinator.requests"] == 3

    def test_trace_serializes_with_hedge_span(self, hedged):
        sim, _ = hedged
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            outcome = sim.simulate_request_outcome(0.0, seg_times())
        payload = json.loads(json.dumps(telemetry.last_trace().to_dict()))
        assert payload["attrs"]["hedges"] == outcome.hedges
        assert payload["attrs"]["coverage"] == 1.0
        assert "hedge.dispatch" in json.dumps(payload)


class TestDegradedQueryMetrics:
    """A served partial answer shows up in the snapshot."""

    def test_partial_coverage_metric(self, loaded_post_db):
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        FaultInjector(FaultPlan(seed=32).fail_segment(1, failures=10)).install_store(store)
        telemetry = Telemetry()
        try:
            with use_telemetry(telemetry), ElasticTier(db, num_servers=2) as tier:
                with pytest.raises(PartialResultError) as excinfo:
                    tier.search([ATTR], db._test_vectors[0], 5, ef=64)
        finally:
            store.fault_hook = None
        assert excinfo.value.coverage < 1.0

        snapshot = telemetry.registry.snapshot()
        assert snapshot["counters"]["resilience.degraded_queries"] == 1
        assert snapshot["counters"]["resilience.retries"] >= 3


class TestDisabledPathUnchanged:
    """With telemetry off, null or live, a served search answers the same."""

    def test_results_identical_across_modes(self, loaded_post_db):
        db = loaded_post_db
        query = db._test_vectors[9]
        answers = []
        with ElasticTier(db, num_servers=2) as tier:
            for telemetry in (None, NullTelemetry(), Telemetry()):
                dmap = MapAccum()
                if telemetry is None:
                    got = tier.search([ATTR], query, 10, ef=64, distance_map=dmap)
                else:
                    with use_telemetry(telemetry):
                        got = tier.search([ATTR], query, 10, ef=64, distance_map=dmap)
                answers.append((sorted(got), dmap.value))
        assert answers[0] == answers[1] == answers[2]
        assert len(answers[0][0]) == 10
