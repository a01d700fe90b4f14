"""Seeded chaos tests: the acceptance criteria of the resilience layer.

Each test drives a workload while a :class:`FaultInjector` executes a
deterministic :class:`FaultPlan`, then asserts the availability contract:

- replication factor 2 + any single machine crash or straggler -> zero
  failed queries;
- unrecoverable segment loss in degraded mode -> partial results with
  ``coverage < 1.0`` reported, never an unhandled exception; on the served
  ``ElasticTier`` a segment that outlives its shard's retries is a
  :class:`PartialResultError` carrying the coverage and the partial;
- identical fault seeds -> identical event traces.
"""

import numpy as np
import pytest

from repro.cluster import ClosedLoopLoadGenerator, ClusterSimulator, make_cluster
from repro.core.search import (
    SearchSpec,
    build_topk_vertex_set,
    merge_sharded_topk,
    vector_search_parts,
)
from repro.elastic import ElasticTier
from repro.errors import (
    FaultInjectionError,
    PartialResultError,
    QueryTimeoutError,
)
from repro.faults import FaultInjector, FaultPlan, ResiliencePolicy
from repro.graph.accumulators import MapAccum
from repro.telemetry import Telemetry, use_telemetry

ATTR = "Post.content_emb"


def seg_times(n, each=0.002):
    return {s: each for s in range(n)}


def run_load(
    plan,
    *,
    rf=2,
    policy=None,
    machines=4,
    segments=8,
    cores=4,
    connections=16,
    duration=2.0,
    each=0.002,
):
    """One closed-loop chaos run; returns (LoadResult, injector)."""
    injector = FaultInjector(plan)
    sim = ClusterSimulator(
        make_cluster(machines, segments, cores=cores, replication_factor=rf),
        injector=injector,
        policy=policy,
    )
    result = ClosedLoopLoadGenerator(sim, connections=connections).run(
        [seg_times(segments, each=each)], duration_seconds=duration
    )
    return result, injector


class TestSingleFaultAvailability:
    def test_machine_crash_with_rf2_zero_failed_queries(self):
        plan = FaultPlan(seed=1).crash(2, at=0.2, recover_at=1.0)
        result, injector = run_load(plan)
        assert result.completed > 0
        assert result.failed == 0
        assert result.mean_coverage == 1.0
        kinds = injector.trace_kinds()
        assert "crash" in kinds and "recover" in kinds

    def test_crash_without_recovery_still_zero_failed(self):
        plan = FaultPlan(seed=2).crash(1, at=0.1)
        result, injector = run_load(plan)
        assert result.failed == 0
        assert "crash" in injector.trace_kinds()

    def test_straggler_with_hedging_zero_failed(self):
        plan = FaultPlan(seed=3).straggle(1, factor=20.0, start=0.0, end=2.0)
        result, injector = run_load(
            plan, policy=ResiliencePolicy(hedge_after=0.01)
        )
        assert result.failed == 0
        kinds = injector.trace_kinds()
        assert "straggle" in kinds
        assert "hedge" in kinds  # tail tolerance actually engaged

    def test_straggler_without_hedging_is_slow_but_complete(self):
        plan = FaultPlan(seed=4).straggle(1, factor=20.0, start=0.0, end=2.0)
        result, _ = run_load(plan)
        assert result.failed == 0

    def test_injected_segment_faults_absorbed_by_retries(self):
        plan = (
            FaultPlan(seed=5)
            .fail_segment(0, failures=2)
            .fail_segment(3, failures=1)
            .fail_segment(5, failures=2)
        )
        result, injector = run_load(plan)
        assert result.failed == 0
        assert injector.trace_kinds().count("segment-fault") == 5
        assert "retry" in injector.trace_kinds()

    def test_dispatch_drops_are_resent(self):
        plan = FaultPlan(seed=6).degrade_network(
            drop_probability=0.2, start=0.0, end=2.0
        )
        result, injector = run_load(plan)
        assert result.failed == 0
        assert "drop" in injector.trace_kinds()


class TestDegradedMode:
    def test_unrecoverable_loss_reports_partial_coverage(self):
        """RF=1 + permanent machine loss: explicit coverage, no exceptions."""
        plan = FaultPlan(seed=7).crash(1, at=0.1)
        result, injector = run_load(
            plan,
            rf=1,
            machines=2,
            policy=ResiliencePolicy(allow_partial=True),
        )
        assert result.failed == 0  # never an unhandled exception
        assert result.partial > 0
        assert result.mean_coverage < 1.0
        assert "segment-lost" in injector.trace_kinds()

    def test_unrecoverable_loss_without_degraded_mode_fails_queries(self):
        plan = FaultPlan(seed=8).crash(1, at=0.1)
        result, _ = run_load(plan, rf=1, machines=2)
        assert result.failed > 0

    def test_min_coverage_floor_fails_queries_below_it(self):
        plan = FaultPlan(seed=9).crash(1, at=0.1)
        result, _ = run_load(
            plan,
            rf=1,
            machines=2,
            policy=ResiliencePolicy(allow_partial=True, min_coverage=0.9),
        )
        assert result.failed > 0  # coverage 0.5 violates the floor

    def test_impossible_deadline_times_out_queries(self):
        result, injector = run_load(
            FaultPlan(seed=10),
            policy=ResiliencePolicy(deadline=1e-4, allow_partial=True),
        )
        assert result.failed == result.completed > 0

    def test_deadline_cuts_straggler_segments_in_degraded_mode(self):
        plan = FaultPlan(seed=11).straggle(1, factor=200.0, start=0.0, end=2.0)
        result, injector = run_load(
            plan,
            policy=ResiliencePolicy(deadline=0.05, allow_partial=True),
            connections=8,
        )
        assert result.failed == 0
        assert result.mean_coverage <= 1.0
        # every query either made the deadline fully or shed load explicitly
        assert result.partial == sum(
            1 for e in injector.trace if e.kind == "deadline"
        )


class TestFaultMatrixSweep:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_matrix_with_rf2_zero_failed(self, seed):
        """Acceptance: any seeded single-failure matrix, RF=2, no failures."""
        plan = FaultPlan.random(
            seed,
            num_machines=4,
            num_segments=8,
            duration=2.0,
            crashes=2,
            stragglers=1,
            segment_faults=2,
        )
        result, _ = run_load(plan)
        assert result.completed > 0
        assert result.failed == 0
        assert result.mean_coverage == 1.0

    def test_identical_seeds_reproduce_identical_traces(self):
        traces = []
        for _ in range(2):
            plan = FaultPlan.random(
                7, num_machines=4, num_segments=8, crashes=2, segment_faults=2
            )
            _, injector = run_load(plan)
            traces.append(injector.trace)
        assert traces[0]  # the run actually injected something
        assert traces[0] == traces[1]

    def test_breaker_quarantines_repeat_offender(self):
        """A machine failing every attempt trips the breaker; queries survive."""
        plan = FaultPlan(seed=12)
        for seg_no in range(8):
            plan.fail_segment(seg_no, failures=2, machine_id=1)
        result, injector = run_load(plan, policy=ResiliencePolicy(breaker_threshold=2))
        assert result.failed == 0
        assert "breaker-open" in injector.trace_kinds()


class TestRealSearcherChaos:
    """Chaos through the served distributed path: a 2-server ElasticTier.

    Segment faults are installed on the store (``install_store``), so they
    fire inside the shards' real segment searches; with ``loaded_post_db``'s
    four segments, shard-0 owns groups 0 and 2 and shard-1 groups 1 and 3.
    """

    @pytest.fixture
    def chaotic(self, loaded_post_db):
        """``chaotic(injector)`` -> a started 2-server tier over the gated store."""
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        tiers = []

        def start(injector):
            injector.install_store(store)
            tier = ElasticTier(db, num_servers=2).start()
            tiers.append(tier)
            return tier

        yield start
        for tier in tiers:
            tier.stop()
        store.fault_hook = None

    def test_segment_faults_do_not_change_results(self, loaded_post_db, chaotic):
        db = loaded_post_db
        query = db._test_vectors[17]
        want_map = MapAccum()
        want = db.vector_search([ATTR], query, 10, ef=64, distance_map=want_map)
        injector = FaultInjector(
            FaultPlan(seed=20).fail_segment(0, failures=2).fail_segment(2)
        )
        tier = chaotic(injector)
        telemetry = Telemetry()
        got_map = MapAccum()
        with use_telemetry(telemetry):
            got = tier.search([ATTR], query, 10, ef=64, distance_map=got_map)
        assert sorted(got) == sorted(want)
        assert got_map.value == want_map.value
        # all three injected failures fired and were retried away
        assert injector.trace_kinds().count("segment-fault") == 3
        counters = telemetry.registry.snapshot()["counters"]
        assert counters.get("resilience.degraded_queries", 0) == 0
        assert counters["resilience.retries"] >= 2

    def test_machine_crash_fails_over_between_queries(self, loaded_post_db, chaotic):
        db = loaded_post_db
        tier = chaotic(FaultInjector(FaultPlan(seed=21)))
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            for index, query in enumerate(db._test_vectors[:3]):
                if index == 1:
                    tier.shards["shard-1"].stop()  # dies between queries
                got = tier.search([ATTR], query, 5, ef=64)
                assert sorted(got) == sorted(db.vector_search([ATTR], query, 5, ef=64))
        assert telemetry.registry.snapshot()["counters"]["elastic.crash_failovers"] == 1

    def test_two_failures_on_one_segment_are_absorbed(self, loaded_post_db, chaotic):
        db = loaded_post_db
        query = db._test_vectors[0]
        want = db.vector_search([ATTR], query, 5, ef=64)
        tier = chaotic(FaultInjector(FaultPlan(seed=22).fail_segment(1, failures=2)))
        assert tier.search([ATTR], query, 5, ef=64) == want

    def test_exhausted_segment_raises_partial_result_error(self, loaded_post_db, chaotic):
        db = loaded_post_db
        query = db._test_vectors[0]
        with db.snapshot() as snap:
            parts, _ = vector_search_parts(
                db.service, snap, SearchSpec(db.service, [ATTR], query, 5, ef=64), None,
                groups=frozenset({0, 2, 3}),
            )
        want = build_topk_vertex_set(merge_sharded_topk([parts], 5), None)
        tier = chaotic(FaultInjector(FaultPlan(seed=22).fail_segment(1, failures=10)))
        with pytest.raises(PartialResultError) as excinfo:
            tier.search([ATTR], query, 5, ef=64)
        assert excinfo.value.coverage == 0.75  # 3 of 4 segment groups answered
        assert excinfo.value.result == want  # the partial top-k is attached
        assert isinstance(excinfo.value.__cause__, FaultInjectionError)

    def test_exhausted_segment_costs_only_its_group(self, loaded_post_db, chaotic):
        """shard-1's sub-request for groups {1, 3} fails whole; its groups
        go again one per sub-request, so group 3 still answers."""
        db = loaded_post_db
        tier = chaotic(FaultInjector(FaultPlan(seed=23).fail_segment(1, failures=10)))
        telemetry = Telemetry()
        dmap = MapAccum()
        with use_telemetry(telemetry), pytest.raises(PartialResultError) as excinfo:
            tier.search([ATTR], db._test_vectors[0], 5, ef=64, distance_map=dmap)
        assert excinfo.value.coverage == 0.75  # not 0.5: group 3 was re-sent alone
        assert len(excinfo.value.result) == 5  # still a full top-k from live groups
        assert set(dmap.value) == excinfo.value.result.members()
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["resilience.retries"] >= 3
        assert counters["resilience.degraded_queries"] == 1
        assert counters.get("elastic.route_retries", 0) == 0  # re-sends are not routes

    def test_zero_deadline_raises_query_timeout(self, loaded_post_db, chaotic):
        db = loaded_post_db
        tier = chaotic(FaultInjector(FaultPlan(seed=24)))
        with pytest.raises(QueryTimeoutError):
            tier.search([ATTR], db._test_vectors[0], 5, ef=64, timeout=0.0)

    def test_store_level_fault_hook(self, loaded_post_db):
        """install_store routes search_segment through the injected gate."""
        db = loaded_post_db
        store = db.service.store("Post", "content_emb")
        injector = FaultInjector(FaultPlan(seed=25).fail_segment(2, failures=1))
        injector.install_store(store)
        try:
            query = db._test_vectors[0]
            with db.snapshot() as snap:
                with pytest.raises(FaultInjectionError):
                    store.search_segment(2, query, 5, snapshot_tid=snap.tid)
                # the single injected failure is consumed; next attempt works
                out = store.search_segment(2, query, 5, snapshot_tid=snap.tid)
            assert out.seg_no == 2
        finally:
            store.fault_hook = None
