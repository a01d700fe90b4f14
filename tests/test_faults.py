"""Unit tests for the fault-injection harness (repro.faults) and the
durability-side crash machinery (torn WAL tails, mid-commit failpoints)."""

import json
import sys
import threading

import pytest

from repro import Attribute, AttrType, GraphSchema, Metric
from repro.errors import (
    FaultInjectionError,
    SimulatedCrash,
    WALCorruptionError,
)
from repro.faults import RETRY_BUDGET, FaultInjector, FaultPlan
from repro.graph.storage import GraphStore
from repro.graph.wal import WriteAheadLog


def make_schema():
    schema = GraphSchema()
    schema.create_vertex_type(
        "Person",
        [
            Attribute("id", AttrType.INT, primary_key=True),
            Attribute("name", AttrType.STRING),
        ],
    )
    schema.create_edge_type("knows", "Person", "Person")
    schema.add_embedding_attribute("Person", "emb", dimension=4, metric=Metric.L2)
    return schema


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan().crash_worker(at_request=0)
        with pytest.raises(FaultInjectionError):
            FaultPlan().stall_worker(1, seconds=0.0)
        with pytest.raises(FaultInjectionError):
            FaultPlan().crash_commit(1, mode="halt-and-catch-fire")
        with pytest.raises(FaultInjectionError):
            FaultPlan().crash_commit(1, torn_fraction=1.0)

    def test_builder_chains(self):
        plan = (
            FaultPlan(seed=3)
            .crash_worker(2)
            .stall_worker(4, seconds=0.01)
            .fail_segment(0, failures=2)
        )
        assert [f.at_request for f in plan.worker_crashes] == [2]
        assert [f.at_request for f in plan.worker_stalls] == [4]
        assert plan.segment_faults[0].failures == 2

    def test_random_plan_is_reproducible(self):
        a = FaultPlan.random(seed=11, num_segments=16)
        b = FaultPlan.random(seed=11, num_segments=16)
        assert a == b
        c = FaultPlan.random(seed=12, num_segments=16)
        assert a != c

    def test_random_segment_faults_fit_the_retry_budget(self):
        """Distinct segments, each failing fewer times than a shard tries."""
        for seed in range(20):
            plan = FaultPlan.random(seed, num_segments=3, requests=5)
            segments = [f.seg_no for f in plan.segment_faults]
            assert len(set(segments)) == len(segments) == 2
            assert all(1 <= f.failures < RETRY_BUDGET for f in plan.segment_faults)
            ordinals = [f.at_request for f in plan.worker_crashes + plan.worker_stalls]
            assert all(1 <= at <= 5 for at in ordinals)


class TestInjectorDeterminism:
    def test_segment_faults_consumed_in_order(self):
        injector = FaultInjector(FaultPlan().fail_segment(3, failures=2))
        assert not injector.segment_attempt_fails(2)  # other segment
        assert injector.segment_attempt_fails(3)
        assert injector.segment_attempt_fails(3)
        assert not injector.segment_attempt_fails(3)
        assert [e.kind for e in injector.trace] == ["segment-fault", "segment-fault"]

    def test_raise_segment_fault(self):
        injector = FaultInjector(FaultPlan().fail_segment(0))
        with pytest.raises(FaultInjectionError):
            injector.raise_segment_fault(0)
        injector.raise_segment_fault(0)  # drained

    def test_concurrent_claims_never_overdraw_a_segment_budget(self):
        """Serve workers race on an installed store gate: 8 threads draining
        one 50-failure budget must fire exactly 50 failures, every trial."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # preempt between a read and its write
        try:
            for _ in range(100):
                injector = FaultInjector(FaultPlan().fail_segment(0, failures=50))
                barrier = threading.Barrier(8)

                def drain():
                    barrier.wait(timeout=5)
                    while injector.segment_attempt_fails(0):
                        pass

                threads = [threading.Thread(target=drain) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=5)
                    assert not thread.is_alive()
                assert injector.trace_kinds().count("segment-fault") == 50
        finally:
            sys.setswitchinterval(interval)


class TestTornWalReplay:
    def test_torn_tail_tolerated_and_truncated(self, tmp_path, caplog):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            wal.append(1, [("upsert_vertex", "V", 1, {"x": 1})])
            wal.append(2, [("upsert_vertex", "V", 2, {"x": 2})])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"tid": 3, "ops": [["upsert_ver')  # torn mid-append
        with caplog.at_level("WARNING", logger="repro.graph.wal"):
            replayed = list(WriteAheadLog(path).replay())
        assert [tid for tid, _ in replayed] == [1, 2]
        assert any("torn trailing record" in r.message for r in caplog.records)
        # the torn bytes are physically gone: next append starts clean
        with WriteAheadLog(path) as wal:
            wal.append(3, [("upsert_vertex", "V", 3, {"x": 3})])
        assert [tid for tid, _ in WriteAheadLog(path).replay()] == [1, 2, 3]

    def test_mid_file_corruption_refused(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            wal.append(1, [("noop",)])
            wal.append(2, [("noop",)])
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:10]  # corrupt a *committed* record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WALCorruptionError):
            list(WriteAheadLog(path).replay())

    def test_non_dict_record_is_torn(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            wal.append(1, [("noop",)])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("42\n")  # valid JSON, not a record
        assert [tid for tid, _ in WriteAheadLog(path).replay()] == [1]

    def test_arm_torn_write_tears_and_crashes(self, tmp_path):
        path = tmp_path / "log.wal"
        wal = WriteAheadLog(path)
        wal.append(1, [("noop",)])
        wal.arm_torn_write(fraction=0.4)
        with pytest.raises(SimulatedCrash):
            wal.append(2, [("upsert_vertex", "V", 9, {"x": 9})])
        wal.close()
        raw = path.read_text()
        assert raw.count("\n") == 1  # torn record has no newline
        assert [tid for tid, _ in WriteAheadLog(path).replay()] == [1]

    def test_arm_torn_write_validation(self):
        wal = WriteAheadLog()
        with pytest.raises(ValueError):
            wal.arm_torn_write(fraction=0.0)

    def test_memory_log_torn_write_loses_record(self):
        wal = WriteAheadLog()
        wal.append(1, [("noop",)])
        wal.arm_torn_write()
        with pytest.raises(SimulatedCrash):
            wal.append(2, [("noop",)])
        assert [tid for tid, _ in wal.replay()] == [1]


class TestMidCommitCrashRecovery:
    def _commit_one(self, store, pk, name):
        with store.begin() as txn:
            txn.upsert_vertex("Person", pk, {"name": name})

    def test_torn_wal_crash_recovers_to_previous_commit(self, tmp_path):
        """Crash mid-append: the transaction never committed."""
        wal_path = tmp_path / "store.wal"
        store = GraphStore(make_schema(), segment_size=4, wal_path=wal_path)
        injector = FaultInjector(FaultPlan().crash_commit(at_commit=2, mode="torn-wal"))
        injector.install_commit_faults(store)
        self._commit_one(store, 1, "alice")
        with pytest.raises(SimulatedCrash):
            with store.begin() as txn:
                txn.upsert_vertex("Person", 2, {"name": "bob"})
                txn.commit()
        store.wal.close()  # the process is dead; recover from disk
        recovered = GraphStore.recover(make_schema(), wal_path, segment_size=4)
        assert recovered.last_tid == 1
        with recovered.snapshot() as snap:
            assert snap.vid_for_pk("Person", 1) is not None
            assert snap.vid_for_pk("Person", 2) is None
        assert "commit-crash" in injector.trace_kinds()

    def test_mid_apply_crash_recovers_full_transaction(self, tmp_path):
        """Crash after the WAL append: the transaction IS durable, even if
        the dying process only applied part of it in memory."""
        wal_path = tmp_path / "store.wal"
        store = GraphStore(make_schema(), segment_size=4, wal_path=wal_path)
        injector = FaultInjector(
            FaultPlan().crash_commit(at_commit=2, mode="mid-apply", after_ops=1)
        )
        injector.install_commit_faults(store)
        self._commit_one(store, 1, "alice")
        with pytest.raises(SimulatedCrash):
            with store.begin() as txn:
                txn.upsert_vertex("Person", 2, {"name": "bob"})
                txn.upsert_vertex("Person", 3, {"name": "carol"})
                txn.commit()
        store.wal.close()
        recovered = GraphStore.recover(make_schema(), wal_path, segment_size=4)
        assert recovered.last_tid == 2
        with recovered.snapshot() as snap:
            assert snap.get_attr(
                "Person", snap.vid_for_pk("Person", 2), "name"
            ) == "bob"
            assert snap.get_attr(
                "Person", snap.vid_for_pk("Person", 3), "name"
            ) == "carol"

    def test_post_wal_crash_recovers_full_transaction(self, tmp_path):
        wal_path = tmp_path / "store.wal"
        store = GraphStore(make_schema(), segment_size=4, wal_path=wal_path)
        injector = FaultInjector(FaultPlan().crash_commit(at_commit=1, mode="post-wal"))
        injector.install_commit_faults(store)
        with pytest.raises(SimulatedCrash):
            with store.begin() as txn:
                txn.upsert_vertex("Person", 7, {"name": "dora"})
                txn.commit()
        store.wal.close()
        recovered = GraphStore.recover(make_schema(), wal_path, segment_size=4)
        assert recovered.last_tid == 1
        with recovered.snapshot() as snap:
            assert snap.vid_for_pk("Person", 7) is not None

    def test_recovery_is_idempotent_across_repeated_crashes(self, tmp_path):
        wal_path = tmp_path / "store.wal"
        store = GraphStore(make_schema(), segment_size=4, wal_path=wal_path)
        injector = FaultInjector(FaultPlan().crash_commit(at_commit=3, mode="torn-wal"))
        injector.install_commit_faults(store)
        self._commit_one(store, 1, "a")
        self._commit_one(store, 2, "b")
        with pytest.raises(SimulatedCrash):
            self._commit_one(store, 3, "c")
        store.wal.close()
        once = GraphStore.recover(make_schema(), wal_path, segment_size=4)
        once.wal.close()
        twice = GraphStore.recover(make_schema(), wal_path, segment_size=4)
        assert twice.last_tid == once.last_tid == 2
        with twice.snapshot() as snap:
            assert snap.count("Person") == 2

    def test_torn_record_equivalence_with_clean_history(self, tmp_path):
        """Recovered state is byte-equivalent to never having started the
        torn transaction: the WAL files match after truncation."""
        crashed_path = tmp_path / "crashed.wal"
        clean_path = tmp_path / "clean.wal"
        crashed = GraphStore(make_schema(), segment_size=4, wal_path=crashed_path)
        clean = GraphStore(make_schema(), segment_size=4, wal_path=clean_path)
        injector = FaultInjector(FaultPlan().crash_commit(at_commit=2, mode="torn-wal"))
        injector.install_commit_faults(crashed)
        for store in (crashed, clean):
            with store.begin() as txn:
                txn.upsert_vertex("Person", 1, {"name": "a"})
        with pytest.raises(SimulatedCrash):
            self._commit_one(crashed, 2, "b")
        crashed.wal.close()
        clean.wal.close()
        list(WriteAheadLog(crashed_path).replay())  # triggers truncation
        assert crashed_path.read_bytes() == clean_path.read_bytes()
        assert json.loads(crashed_path.read_text().splitlines()[0])["tid"] == 1
