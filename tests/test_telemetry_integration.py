"""Telemetry through the distributed query paths.

The acceptance scenario for the observability layer: a distributed top-k
in the cluster model (:class:`ClusterSimulator`) with a straggling replica
holder must produce a trace tree whose coordinator span holds the machine
spans it dispatched to, and the metrics snapshot must count the request.
The served path (:class:`ElasticTier`) reports a degraded query in the
resilience counters.  A last battery pins the contract that telemetry
never changes results.
"""

import json

import pytest

from repro.cluster import ClusterSimulator, Machine
from repro.elastic import ElasticTier
from repro.errors import PartialResultError
from repro.faults import FaultInjector, FaultPlan
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
    """The model routes around a busy replica holder, and the trace shows it."""

    @pytest.fixture
    def straggling(self):
        # Both single-core machines hold segments 0-3; segment 4 lives only
        # on machine 0, so a long request on it leaves machine 0 straggling
        # and the least-loaded placement sends the next request to machine 1.
        sim = ClusterSimulator(
            [
                Machine(0, cores=1, segments=list(range(SEGMENTS + 1))),
                Machine(1, cores=1, segments=list(range(SEGMENTS))),
            ]
        )
        sim.simulate_request(0.0, {SEGMENTS: 1.0})
        return sim

    def test_trace_tree_contains_machine_spans(self, straggling):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            done = straggling.simulate_request(0.0, seg_times())

        assert done < 1.0  # machine 0's backlog did not delay the answer
        trace = telemetry.last_trace()
        assert trace.name == "coordinator.request"
        assert trace.attrs["segments"] == SEGMENTS
        machines = trace.find("machine.execute")
        assert [span.attrs["machine_id"] for span in machines] == [1]
        assert machines[0].attrs["segments"] == list(range(SEGMENTS))
        assert machines[0] in trace.children
        # The rendered tree is what README shows.
        assert "machine.execute" in format_span_tree(trace)

    def test_snapshot_reports_request_counter(self, straggling):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            for start in (0.0, 0.01, 0.02):
                straggling.simulate_request(start, seg_times())
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["coordinator.requests"] == 3
        assert counters["machine.jobs"] == 3 * SEGMENTS

    def test_trace_serializes(self, straggling):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            straggling.simulate_request(0.0, seg_times())
        payload = json.loads(json.dumps(telemetry.last_trace().to_dict()))
        assert payload["name"] == "coordinator.request"
        assert payload["attrs"]["segments"] == SEGMENTS
        assert [child["attrs"]["machine_id"] for child in payload["children"]] == [1]


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
