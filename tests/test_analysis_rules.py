"""Unit tests for every lint rule (positive + negative fixtures), the noqa
suppression machinery, the lock-order graph, and the runtime sanitizer."""

from __future__ import annotations

import ast
import textwrap
import threading

import pytest

from repro.analysis import lint_source
from repro.analysis.findings import SuppressionIndex
from repro.analysis.lockgraph import LockOrderGraph
from repro.analysis import sanitizer


def lint(source: str, path: str = "src/repro/core/snippet.py", rules=None):
    return lint_source(textwrap.dedent(source), path=path, rule_ids=rules)


def rule_ids(findings):
    return [f.rule_id for f in findings]


# ---------------------------------------------------------------- R001


class TestR001SharedMutableWithoutLock:
    def test_unguarded_mutation_flagged(self):
        findings = lint(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, key, value):
                    self._items[key] = value
            """,
            rules=["R001"],
        )
        assert rule_ids(findings) == ["R001"]
        assert "_items" in findings[0].message

    def test_guarded_mutation_clean(self):
        findings = lint(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, key, value):
                    with self._lock:
                        self._items[key] = value
            """,
            rules=["R001"],
        )
        assert findings == []

    def test_acquire_call_counts_as_guard(self):
        findings = lint(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def put(self, value):
                    self._lock.acquire()
                    try:
                        self._items.append(value)
                    finally:
                        self._lock.release()
            """,
            rules=["R001"],
        )
        assert findings == []

    def test_mutator_method_and_subscript_depth(self):
        findings = lint(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._index = {}

                def drop(self, vtype, pk):
                    self._index[vtype].pop(pk, None)
            """,
            rules=["R001"],
        )
        assert rule_ids(findings) == ["R001"]

    def test_ndarray_attr_tracked(self):
        findings = lint(
            """
            import threading
            import numpy as np

            class Index:
                def __init__(self):
                    self._write_lock = threading.RLock()
                    self._deleted = np.zeros(8, dtype=bool)

                def delete(self, row):
                    self._deleted[row] = True
            """,
            rules=["R001"],
        )
        assert rule_ids(findings) == ["R001"]

    def test_lockless_class_ignored(self):
        findings = lint(
            """
            class Plain:
                def __init__(self):
                    self._items = []

                def put(self, value):
                    self._items.append(value)
            """,
            rules=["R001"],
        )
        assert findings == []

    def test_init_and_setstate_exempt(self):
        findings = lint(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []
                    self._items.append(1)

                def __setstate__(self, state):
                    self._items = []
            """,
            rules=["R001"],
        )
        assert findings == []

    def test_reads_not_flagged(self):
        findings = lint(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def get(self, key):
                    return self._items.get(key)
            """,
            rules=["R001"],
        )
        assert findings == []


# ---------------------------------------------------------------- R002


class TestR002LockOrderInversion:
    def test_syntactic_inversion_flagged(self):
        findings = lint(
            """
            import threading

            class Store:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
            """,
            rules=["R002"],
        )
        assert rule_ids(findings) == ["R002"]
        assert "inverts" in findings[0].message

    def test_consistent_order_clean(self):
        findings = lint(
            """
            import threading

            class Store:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._a:
                        with self._b:
                            pass
            """,
            rules=["R002"],
        )
        assert findings == []

    def test_propagated_inversion_through_method_call(self):
        # holder -> callee that acquires the other lock, in both directions.
        findings = lint(
            """
            import threading

            class Store:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def locked_b(self):
                    with self._b:
                        return 1

                def forward(self):
                    with self._a:
                        return self.locked_b()

                def locked_a(self):
                    with self._a:
                        return 2

                def backward(self):
                    with self._b:
                        return self.locked_a()
            """,
            rules=["R002"],
        )
        assert rule_ids(findings) == ["R002"]

    def test_three_lock_cycle_detected(self):
        findings = lint(
            """
            import threading

            class Store:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self._c = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._b:
                        with self._c:
                            pass

                def three(self):
                    with self._c:
                        with self._a:
                            pass
            """,
            rules=["R002"],
        )
        assert rule_ids(findings) == ["R002"]


# ---------------------------------------------------------------- R003


class TestR003SnapshotBypass:
    def test_private_state_access_in_gsql_flagged(self):
        findings = lint(
            """
            def run(store):
                return store._segments["Post"]
            """,
            path="src/repro/gsql/executor_snippet.py",
            rules=["R003"],
        )
        assert rule_ids(findings) == ["R003"]

    def test_delta_store_access_in_core_search_flagged(self):
        findings = lint(
            """
            def peek(store):
                return len(store.delta_store)
            """,
            path="src/repro/core/search.py",
            rules=["R003"],
        )
        assert rule_ids(findings) == ["R003"]

    def test_own_private_state_allowed(self):
        findings = lint(
            """
            class Executor:
                def __init__(self):
                    self._segments = []

                def run(self):
                    return self._segments
            """,
            path="src/repro/gsql/executor_snippet.py",
            rules=["R003"],
        )
        assert findings == []

    def test_other_modules_not_in_scope(self):
        findings = lint(
            """
            def gc(store):
                return store.delta_files
            """,
            path="src/repro/core/vacuum_snippet.py",
            rules=["R003"],
        )
        assert findings == []


# ---------------------------------------------------------------- R004


class TestR004WallClock:
    def test_wall_clock_in_commit_function_flagged(self):
        findings = lint(
            """
            import time

            def commit(ops):
                stamp = time.time()
                return stamp
            """,
            path="src/repro/core/snippet.py",
            rules=["R004"],
        )
        assert rule_ids(findings) == ["R004"]

    def test_wall_clock_anywhere_in_vacuum_module_flagged(self):
        findings = lint(
            """
            import time

            def helper():
                return time.time()
            """,
            path="src/repro/core/vacuum.py",
            rules=["R004"],
        )
        assert rule_ids(findings) == ["R004"]

    def test_monotonic_clock_allowed(self):
        findings = lint(
            """
            import time

            def vacuum():
                start = time.perf_counter()
                return time.perf_counter() - start
            """,
            path="src/repro/core/vacuum.py",
            rules=["R004"],
        )
        assert findings == []

    def test_wall_clock_outside_critical_paths_allowed(self):
        findings = lint(
            """
            import time

            def report():
                return time.time()
            """,
            path="src/repro/shell_snippet.py",
            rules=["R004"],
        )
        assert findings == []


# ---------------------------------------------------------------- R005


class TestR005FloatEquality:
    def test_distance_equality_flagged(self):
        findings = lint(
            """
            def dedupe(dist, best_dist):
                return dist == best_dist
            """,
            rules=["R005"],
        )
        assert rule_ids(findings) == ["R005"]

    def test_score_attribute_inequality_flagged(self):
        findings = lint(
            """
            def changed(result, prev):
                return result.score != prev.score
            """,
            rules=["R005"],
        )
        assert rule_ids(findings) == ["R005"]

    def test_ordering_comparisons_allowed(self):
        findings = lint(
            """
            def better(dist, best_dist):
                return dist < best_dist
            """,
            rules=["R005"],
        )
        assert findings == []

    def test_non_distance_names_allowed(self):
        findings = lint(
            """
            def same(count, total):
                return count == total
            """,
            rules=["R005"],
        )
        assert findings == []

    def test_none_comparison_allowed(self):
        findings = lint(
            """
            def missing(dist):
                return dist == None
            """,
            rules=["R005"],
        )
        assert findings == []


# ---------------------------------------------------------------- R006


class TestR006SilentExcept:
    def test_bare_except_flagged(self):
        findings = lint(
            """
            def risky():
                try:
                    return 1
                except:
                    return None
            """,
            rules=["R006"],
        )
        assert rule_ids(findings) == ["R006"]

    def test_swallowed_exception_flagged(self):
        findings = lint(
            """
            def risky():
                try:
                    return 1
                except Exception:
                    pass
            """,
            rules=["R006"],
        )
        assert rule_ids(findings) == ["R006"]

    def test_handled_exception_allowed(self):
        findings = lint(
            """
            def risky(log):
                try:
                    return 1
                except ValueError as exc:
                    log.warning("failed: %s", exc)
                    return None
            """,
            rules=["R006"],
        )
        assert findings == []

    def test_rethrow_allowed(self):
        findings = lint(
            """
            def risky():
                try:
                    return 1
                except Exception as exc:
                    raise RuntimeError("wrapped") from exc
            """,
            rules=["R006"],
        )
        assert findings == []


# ---------------------------------------------------------------- R007


class TestR007MutableDefault:
    def test_list_default_flagged(self):
        findings = lint(
            """
            def search(query, filters=[]):
                return filters
            """,
            rules=["R007"],
        )
        assert rule_ids(findings) == ["R007"]

    def test_dict_and_kwonly_defaults_flagged(self):
        findings = lint(
            """
            def configure(opts={}, *, extra=dict()):
                return opts, extra
            """,
            rules=["R007"],
        )
        assert rule_ids(findings) == ["R007", "R007"]

    def test_none_default_allowed(self):
        findings = lint(
            """
            def search(query, filters=None):
                return filters or []
            """,
            rules=["R007"],
        )
        assert findings == []


# ----------------------------------------------------------- suppression


class TestNoqaSuppression:
    def test_line_level_noqa(self):
        source = textwrap.dedent(
            """
            x = compute()  # repro: noqa[R005] -- sentinel compare
            y = compute()
            """
        )
        index = SuppressionIndex.from_module(source, ast.parse(source))
        assert index.is_suppressed(2, "R005")
        assert not index.is_suppressed(2, "R001")
        assert not index.is_suppressed(3, "R005")

    def test_def_level_noqa_covers_body(self):
        source = textwrap.dedent(
            """
            def helper():  # repro: noqa[R004] -- reporting only
                import time
                return time.time()
            """
        )
        index = SuppressionIndex.from_module(source, ast.parse(source))
        assert index.is_suppressed(4, "R004")
        assert not index.is_suppressed(4, "R007")

    def test_bare_noqa_suppresses_all_rules(self):
        source = "x = 1  # repro: noqa\n"
        index = SuppressionIndex.from_module(source, ast.parse(source))
        assert index.is_suppressed(1, "R001")
        assert index.is_suppressed(1, "R999")


# ----------------------------------------------------------- lock graph


class TestLockOrderGraph:
    def test_edge_and_path(self):
        graph = LockOrderGraph()
        assert graph.add_edge("a", "b") is None
        assert graph.add_edge("b", "c") is None
        assert graph.path("a", "c") == ["a", "b", "c"]
        assert graph.path("c", "a") is None

    def test_inversion_returns_reverse_path(self):
        graph = LockOrderGraph()
        graph.add_edge("a", "b")
        # adding b->a closes the cycle; the pre-existing a->b path comes back
        assert graph.add_edge("b", "a") == ["a", "b"]

    def test_self_edge_ignored(self):
        graph = LockOrderGraph()
        assert graph.add_edge("a", "a") is None
        assert len(graph) == 0

    def test_cycles_reported_once(self):
        graph = LockOrderGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("c", "a")
        assert len(graph.cycles()) == 1


# ------------------------------------------------------------ sanitizer


@pytest.fixture
def clean_sanitizer():
    sanitizer.reset()
    yield sanitizer
    sanitizer.reset()


class TestSanitizer:
    def test_two_threads_opposite_order_inversion(self, clean_sanitizer):
        lock_a = sanitizer.SanitizedLock(name="test.py:1(self._a)")
        lock_b = sanitizer.SanitizedLock(name="test.py:2(self._b)")
        barrier = threading.Event()

        def forward():
            with lock_a:
                with lock_b:
                    pass
            barrier.set()

        def backward():
            barrier.wait(timeout=5)  # strictly after forward: no deadlock
            with lock_b:
                with lock_a:
                    pass

        t1 = threading.Thread(target=forward)
        t2 = threading.Thread(target=backward)
        t1.start()
        t2.start()
        t1.join(timeout=5)
        t2.join(timeout=5)

        found = sanitizer.violations()
        assert [v.kind for v in found] == ["lock-order-inversion"]
        assert "self._a" in found[0].message and "self._b" in found[0].message

    def test_consistent_order_clean(self, clean_sanitizer):
        lock_a = sanitizer.SanitizedLock(name="test.py:1(self._a)")
        lock_b = sanitizer.SanitizedLock(name="test.py:2(self._b)")

        def worker():
            with lock_a:
                with lock_b:
                    pass

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert sanitizer.violations() == []
        assert sanitizer.counters()["orderings"] == 1

    def test_violation_tagged_with_context(self, clean_sanitizer):
        sanitizer.set_context("tests/test_example.py::test_case")
        try:
            commit = sanitizer.SanitizedLock(name="storage.py:58(self._commit_lock)")
            other = sanitizer.SanitizedLock(name="delta.py:108(self._lock)")
            with other:
                with commit:
                    pass
        finally:
            sanitizer.set_context("")
        found = sanitizer.violations()
        assert found and found[0].context == "tests/test_example.py::test_case"
        assert "triggered by: tests/test_example.py::test_case" in found[0].render()

    def test_held_across_commit_detected(self, clean_sanitizer):
        commit = sanitizer.SanitizedLock(name="storage.py:58(self._commit_lock)")
        other = sanitizer.SanitizedLock(name="delta.py:108(self._lock)")
        with other:
            with commit:
                pass
        kinds = [v.kind for v in sanitizer.violations()]
        assert "held-across-commit" in kinds

    def test_commit_then_other_is_fine(self, clean_sanitizer):
        commit = sanitizer.SanitizedLock(name="storage.py:58(self._commit_lock)")
        other = sanitizer.SanitizedLock(name="delta.py:108(self._lock)")
        with commit:
            with other:
                pass
        assert sanitizer.violations() == []

    def test_reentrant_lock_no_false_positive(self, clean_sanitizer):
        lock = sanitizer.SanitizedLock(name="test.py:9(self._rl)", reentrant=True)
        with lock:
            with lock:
                pass
        assert sanitizer.violations() == []

    def test_same_site_instances_no_self_edge(self, clean_sanitizer):
        # Two DeltaStore-style locks share a creation-site name; nesting them
        # records no ordering (no defined order between instances).
        one = sanitizer.SanitizedLock(name="delta.py:108(self._lock)")
        two = sanitizer.SanitizedLock(name="delta.py:108(self._lock)")
        with one:
            with two:
                pass
        assert sanitizer.violations() == []
        assert sanitizer.counters()["orderings"] == 0

    def test_patch_locks_instruments_repro_frames_only(self, clean_sanitizer):
        sanitizer.patch_locks()
        try:
            code = "import threading\nlock = threading.Lock()\nrlock = threading.RLock()\n"
            repro_ns: dict = {}
            exec(compile(code, "/x/src/repro/fake_module.py", "exec"), repro_ns)
            assert isinstance(repro_ns["lock"], sanitizer.SanitizedLock)
            assert isinstance(repro_ns["rlock"], sanitizer.SanitizedLock)

            other_ns: dict = {}
            exec(compile(code, "/x/site-packages/other/mod.py", "exec"), other_ns)
            assert not isinstance(other_ns["lock"], sanitizer.SanitizedLock)

            analysis_ns: dict = {}
            exec(
                compile(code, "/x/src/repro/analysis/mod.py", "exec"), analysis_ns
            )
            assert not isinstance(analysis_ns["lock"], sanitizer.SanitizedLock)
        finally:
            sanitizer.unpatch_locks()

    @staticmethod
    def _close_then_commit(name: str) -> list:
        """On a fresh thread (whose held stack dies with it): close a lock
        named ``name`` while holding another, let a second thread open it,
        wait on it, then enter a commit section; returns the held stack
        seen just before the commit."""
        seen = []

        def client():
            other = sanitizer.SanitizedLock(name="delta.py:108(self._lock)")
            commit = sanitizer.SanitizedLock(name="storage.py:58(self._commit_lock)")
            gate = sanitizer.SanitizedLock(name=name)
            with other:
                gate.acquire()  # closed by its creator, as ServeFuture does
            opener = threading.Thread(target=gate.release)
            opener.start()
            opener.join(timeout=5)
            with other:
                assert gate.acquire(timeout=5)  # a result() wait
            gate.release()
            seen.extend(lock.name for lock in sanitizer._state.held())
            with commit:
                pass

        thread = threading.Thread(target=client)
        thread.start()
        thread.join(timeout=10)
        return seen

    def test_a_latch_is_never_held(self, clean_sanitizer):
        assert sanitizer.SanitizedLock(name="server.py:160(self._latch)").latch
        assert not sanitizer.SanitizedLock(name="delta.py:108(self._lock)").latch
        seen = self._close_then_commit("server.py:160(self._latch)")
        assert seen == []
        assert sanitizer.violations() == []
        assert sanitizer.counters()["orderings"] == 0

    def test_a_plain_lock_opened_elsewhere_stays_held(self, clean_sanitizer):
        """The trap a latch kind closes: a plain lock closed by one thread
        and released by another stays on the closer's held stack."""
        seen = self._close_then_commit("server.py:160(self._gate)")
        assert seen == ["server.py:160(self._gate)"]
        kinds = {v.kind for v in sanitizer.violations()}
        assert kinds == {"held-across-commit", "lock-order-inversion"}

    def test_summary_line_shape(self, clean_sanitizer):
        line = sanitizer.summary_line()
        assert "0 lock-order inversion(s)" in line
        assert "0 held-across-commit violation(s)" in line

    def test_sanitized_lock_pickles_like_core_locks(self, clean_sanitizer):
        import pickle

        lock = sanitizer.SanitizedLock(name="test.py:5(self._lock)")
        clone = pickle.loads(pickle.dumps(lock))
        with clone:
            pass
        assert clone.name == lock.name


# ---------------------------------------------------------------- R008


class TestR008WatermarkBeforeSnapshot:
    def test_unvalidated_sequence_flagged(self):
        findings = lint(
            """
            def serve(store, db, cache, key):
                mark = store.watermark()
                with db.snapshot() as snapshot:
                    top = search(snapshot)
                cache.put(key, top)
            """,
            rules=["R008"],
        )
        assert rule_ids(findings) == ["R008"]
        assert "watermark_tid" in findings[0].message

    def test_validated_sequence_clean(self):
        findings = lint(
            """
            def serve(store, db, cache, key):
                mark = store.watermark()
                with db.snapshot() as snapshot:
                    top = search(snapshot)
                    if EmbeddingStore.watermark_tid(mark) > snapshot.tid:
                        return top
                cache.put(key, top)
            """,
            rules=["R008"],
        )
        assert findings == []

    def test_snapshot_without_watermark_clean(self):
        findings = lint(
            """
            def run(db):
                with db.snapshot() as snapshot:
                    return search(snapshot)
            """,
            rules=["R008"],
        )
        assert findings == []

    def test_snapshot_before_watermark_clean(self):
        findings = lint(
            """
            def run(db, store):
                with db.snapshot() as snapshot:
                    top = search(snapshot)
                return top, store.watermark()
            """,
            rules=["R008"],
        )
        assert findings == []


# ---------------------------------------------------------------- R009


class TestR009AcquireWithoutTryFinally:
    def test_bare_acquire_flagged(self):
        findings = lint(
            """
            def update(self):
                self._lock.acquire()
                self._items.clear()
                self._lock.release()
            """,
            rules=["R009"],
        )
        assert rule_ids(findings) == ["R009"]
        assert "try/finally" in findings[0].message

    def test_try_finally_release_clean(self):
        findings = lint(
            """
            def update(self):
                self._lock.acquire()
                try:
                    self._items.clear()
                finally:
                    self._lock.release()
            """,
            rules=["R009"],
        )
        assert findings == []

    def test_nonblocking_probe_clean(self):
        findings = lint(
            """
            def try_update(self):
                if self._lock.acquire(False):
                    self._items.clear()
                    self._lock.release()
            """,
            rules=["R009"],
        )
        assert findings == []

    def test_wrapper_methods_exempt(self):
        findings = lint(
            """
            class Wrapper:
                def acquire(self):
                    return self._inner_lock.acquire()

                def __enter__(self):
                    self._inner_lock.acquire()
                    return self
            """,
            rules=["R009"],
        )
        assert findings == []

    def test_non_lock_receiver_ignored(self):
        findings = lint(
            """
            def fetch(self):
                self._connection.acquire()
            """,
            rules=["R009"],
        )
        assert findings == []


# ---------------------------------------------------------------- R010


class TestR010ThreadLifecycle:
    def test_untracked_thread_flagged(self):
        findings = lint(
            """
            import threading

            def start(self):
                self._thread = threading.Thread(target=self._loop)
                self._thread.start()
            """,
            rules=["R010"],
        )
        assert rule_ids(findings) == ["R010"]
        assert "daemon" in findings[0].message

    def test_daemon_thread_clean(self):
        findings = lint(
            """
            import threading

            def start(self):
                self._thread = threading.Thread(target=self._loop, daemon=True)
                self._thread.start()
            """,
            rules=["R010"],
        )
        assert findings == []

    def test_joined_thread_clean(self):
        findings = lint(
            """
            import threading

            def run(self):
                worker = threading.Thread(target=self._loop)
                worker.start()
                worker.join()
            """,
            rules=["R010"],
        )
        assert findings == []


# ---------------------------------------------------------------- R011


class TestR011GenericException:
    def test_raise_exception_flagged(self):
        findings = lint(
            """
            def commit(self):
                raise Exception("commit failed")
            """,
            rules=["R011"],
        )
        assert rule_ids(findings) == ["R011"]
        assert "ReproError" in findings[0].message

    def test_raise_runtimeerror_flagged(self):
        findings = lint(
            """
            def commit(self):
                raise RuntimeError("commit failed")
            """,
            rules=["R011"],
        )
        assert rule_ids(findings) == ["R011"]

    def test_typed_error_clean(self):
        findings = lint(
            """
            from repro.errors import TransactionError

            def commit(self):
                raise TransactionError("commit failed")
            """,
            rules=["R011"],
        )
        assert findings == []

    def test_outside_repro_tree_exempt(self):
        findings = lint(
            """
            def main():
                raise RuntimeError("script failure")
            """,
            path="tools/some_script.py",
            rules=["R011"],
        )
        assert findings == []

    def test_bare_reraise_clean(self):
        findings = lint(
            """
            def commit(self):
                try:
                    work()
                except Exception:
                    raise
            """,
            rules=["R011"],
        )
        assert findings == []


# ---------------------------------------------------------------- R012


class TestR012InstrumentCatalog:
    def test_unknown_instrument_flagged(self):
        findings = lint(
            """
            def record(tel):
                tel.inc("serve.nonexistent_counter")
            """,
            rules=["R012"],
        )
        assert rule_ids(findings) == ["R012"]
        assert "serve.nonexistent_counter" in findings[0].message

    def test_catalogued_instrument_clean(self):
        findings = lint(
            """
            def record(tel, elapsed):
                tel.inc("serve.cache_hits")
                tel.observe("vacuum.index_merge_seconds", elapsed)
            """,
            rules=["R012"],
        )
        assert findings == []

    def test_non_dotted_and_dynamic_names_ignored(self):
        findings = lint(
            """
            def record(tel, name):
                tel.inc("plain_counter")
                tel.inc(name)
            """,
            rules=["R012"],
        )
        assert findings == []
