"""Seeded chaos tests: the acceptance criteria of the resilience layer.

Each test drives searches on a 2-server :class:`ElasticTier` while
:class:`FaultInjector` s execute a deterministic :class:`FaultPlan`:
segment faults on the store (``install_store``), worker crashes and stalls
on one shard, and the other shard stopped mid-run.  The availability
contract:

- any single worker crash, worker stall, stopped server, or segment fault
  within a shard's retries -> zero failed queries, and every answer equals
  ``db.vector_search``;
- a segment that outlives its shard's retries is a
  :class:`PartialResultError` carrying the coverage and the partial;
- identical fault seeds -> identical plans and identical fault traces.
"""

import threading

import pytest

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
    ReproError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.graph.accumulators import MapAccum
from repro.telemetry import Telemetry, use_telemetry

ATTR = "Post.content_emb"
QUERIES = 12


def live_run(db, plan, *, stop_after=None):
    """``QUERIES`` searches from two clients on a 2-server tier under ``plan``.

    The plan's segment faults fire in the store's segment searches; its
    worker crashes and stalls fire on shard-0, which survives.  Once
    ``stop_after`` queries have answered, shard-1 is stopped while the
    other client's query may be in flight.  Returns ``(failures, counters,
    sorted trace kinds)`` after asserting every answer equals
    ``db.vector_search``.
    """
    store = db.service.store("Post", "content_emb")
    store_faults = FaultInjector(plan)
    worker_faults = FaultInjector(plan)  # only its worker faults are consulted
    store_faults.install_store(store)
    queries = db._test_vectors[:QUERIES]
    answers: dict[int, object] = {}
    failures: list[ReproError] = []
    answered = threading.Semaphore(0)
    telemetry = Telemetry()
    try:
        with use_telemetry(telemetry), ElasticTier(
            db, num_servers=2, injectors={"shard-0": worker_faults}
        ) as tier:

            def client(indices):
                for i in indices:
                    try:
                        answers[i] = tier.search([ATTR], queries[i], 5, ef=64)
                    except ReproError as exc:
                        failures.append(exc)
                    answered.release()

            # Daemons: a request the tier loses hangs its client, not pytest.
            clients = [
                threading.Thread(
                    target=client, args=(range(c, QUERIES, 2),), daemon=True
                )
                for c in range(2)
            ]
            for thread in clients:
                thread.start()
            if stop_after is not None:
                for _ in range(stop_after):
                    assert answered.acquire(timeout=30)
                tier.shards["shard-1"].stop()
            for thread in clients:
                thread.join(timeout=30)
                assert not thread.is_alive()
    finally:
        store.fault_hook = None
    assert len(answers) + len(failures) == QUERIES  # no client died untyped
    for i, got in answers.items():
        assert got == db.vector_search([ATTR], queries[i], 5, ef=64)
    kinds = sorted(store_faults.trace_kinds() + worker_faults.trace_kinds())
    return failures, telemetry.registry.snapshot()["counters"], kinds


class TestSingleFaultAvailability:
    def test_worker_crash_zero_failed_queries(self, loaded_post_db):
        failures, counters, kinds = live_run(
            loaded_post_db, FaultPlan(seed=1).crash_worker(3)
        )
        assert failures == []
        assert kinds == ["worker-crash"]
        assert counters["serve.worker_crashes"] == 1

    def test_crash_without_recovery_still_zero_failed(self, loaded_post_db):
        """shard-1 stops mid-run for good; its keys move to shard-0."""
        failures, counters, _ = live_run(
            loaded_post_db, FaultPlan(seed=2), stop_after=4
        )
        assert failures == []
        assert counters["elastic.crash_failovers"] == 1

    def test_straggler_without_hedging_is_slow_but_complete(self, loaded_post_db):
        failures, counters, kinds = live_run(
            loaded_post_db, FaultPlan(seed=4).stall_worker(1, seconds=0.2)
        )
        assert failures == []
        assert kinds == ["worker-stall"]
        assert counters["serve.worker_stalls"] == 1

    def test_injected_segment_faults_absorbed_by_retries(self, loaded_post_db):
        plan = (
            FaultPlan(seed=5)
            .fail_segment(0, failures=2)
            .fail_segment(1, failures=1)
            .fail_segment(3, failures=2)
        )
        failures, counters, kinds = live_run(loaded_post_db, plan)
        assert failures == []
        assert kinds == ["segment-fault"] * 5
        assert counters["resilience.retries"] > 0
        assert counters.get("resilience.degraded_queries", 0) == 0


class TestFaultMatrixSweep:
    @staticmethod
    def matrix(seed):
        return FaultPlan.random(seed, num_segments=4, requests=5)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_matrix_zero_failed(self, loaded_post_db, seed):
        """Acceptance: a seeded worker crash, stall and segment faults plus a
        server stopped mid-run cost no query, and change no answer."""
        plan = self.matrix(seed)
        failures, counters, kinds = live_run(loaded_post_db, plan, stop_after=6)
        assert failures == []
        assert kinds.count("worker-crash") == kinds.count("worker-stall") == 1
        assert kinds.count("segment-fault") == sum(f.failures for f in plan.segment_faults)
        assert counters["elastic.crash_failovers"] == 1
        assert counters.get("resilience.degraded_queries", 0) == 0

    def test_identical_seeds_reproduce_identical_traces(self, loaded_post_db):
        runs = []
        for _ in range(2):
            plan = self.matrix(7)
            _, _, kinds = live_run(loaded_post_db, plan, stop_after=6)
            runs.append((plan, kinds))
        assert runs[0][1]  # the run actually injected something
        assert runs[0] == runs[1]


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
