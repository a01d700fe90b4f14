"""Unit tests for repro.telemetry: spans, metrics, runtime, exporters."""

from __future__ import annotations

import ast
import json
import threading
from pathlib import Path

import pytest

import repro
from repro.telemetry import (
    DEFAULT_COUNT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_SPAN,
    NullTelemetry,
    Telemetry,
    disable_telemetry,
    enable_telemetry,
    format_snapshot,
    format_span_tree,
    from_json,
    get_telemetry,
    to_json,
    to_prometheus,
    use_telemetry,
)
from repro.telemetry.instruments import INSTRUMENTS


@pytest.fixture
def telemetry():
    """A live Telemetry installed as the active instance, restored after."""
    t = enable_telemetry()
    yield t
    disable_telemetry()


class TestSpans:
    def test_nesting_builds_a_tree(self, telemetry):
        with telemetry.span("root") as root:
            with telemetry.span("child-a") as a:
                with telemetry.span("grandchild"):
                    pass
            with telemetry.span("child-b"):
                pass
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert [c.name for c in a.children] == ["grandchild"]
        assert root.end_seconds is not None
        assert root.duration_seconds >= a.duration_seconds

    def test_attrs_and_events(self, telemetry):
        with telemetry.span("q", k=10) as span:
            span.set(coverage=0.5)
            span.event("retry", attempt=1)
        assert span.attrs == {"k": 10, "coverage": 0.5}
        retry = span.children[0]
        assert retry.name == "retry" and retry.duration_seconds == 0.0

    def test_walk_and_find(self, telemetry):
        with telemetry.span("coordinator.query") as root:
            with telemetry.span("machine.dispatch", machine_id=0):
                with telemetry.span("segment.search"):
                    pass
            with telemetry.span("machine.dispatch", machine_id=1):
                pass
        assert len(list(root.walk())) == 4
        assert len(root.find("machine.")) == 2
        assert root.find("segment.")[0].name == "segment.search"

    def test_root_span_retained_as_trace(self, telemetry):
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        traces = telemetry.traces()
        assert [t.name for t in traces] == ["outer"]
        assert telemetry.last_trace().children[0].name == "inner"

    def test_record_observes_duration(self, telemetry):
        with telemetry.span("q", record="serve.latency_seconds"):
            pass
        hist = telemetry.registry.histogram("serve.latency_seconds")
        assert hist.count == 1
        assert hist.sum >= 0.0

    def test_slow_query_log_threshold(self):
        t = Telemetry(slow_query_seconds=0.0)
        with use_telemetry(t):
            with t.span("slow"):
                pass
        assert [s.name for s in t.slow_queries()] == ["slow"]
        assert t.registry.counter("query.slow").value == 1

    def test_span_survives_exception(self, telemetry):
        with pytest.raises(ValueError):
            with telemetry.span("boom") as span:
                raise ValueError("x")
        assert span.end_seconds is not None
        assert telemetry.last_trace() is span

    def test_per_thread_stacks_are_independent(self, telemetry):
        roots = {}

        def worker(name):
            with telemetry.span(name) as span:
                pass
            roots[name] = span

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every thread's span is a root (no cross-thread nesting).
        assert all(not s.children for s in roots.values())
        assert len(telemetry.traces()) == 4

    def test_format_tree(self, telemetry):
        with telemetry.span("root", k=5) as root:
            with telemetry.span("leaf"):
                pass
        text = format_span_tree(root)
        assert "root" in text and "k=5" in text
        assert "\n  leaf" in text


class TestNullPath:
    def test_default_is_null(self):
        tel = get_telemetry()
        assert isinstance(tel, NullTelemetry)
        assert tel.enabled is False

    def test_null_span_is_shared_and_inert(self):
        tel = NullTelemetry()
        with tel.span("anything", record="x", k=1) as span:
            assert span is NULL_SPAN
            span.set(a=1).event("e")
        assert span.to_dict() == {}
        assert tel.traces() == [] and tel.last_trace() is None
        assert tel.registry.snapshot()["counters"] == {}

    def test_use_telemetry_restores_previous(self):
        before = get_telemetry()
        live = Telemetry()
        with use_telemetry(live):
            assert get_telemetry() is live
        assert get_telemetry() is before


class TestHistogram:
    def test_bucket_assignment_on_boundaries(self):
        hist = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0):  # <= 1.0 -> first bucket
            hist.observe(value)
        hist.observe(5.0)  # (1, 10]
        hist.observe(10.0)  # boundary lands in its own bucket
        hist.observe(1000.0)  # overflow
        snap = hist.snapshot()
        assert snap["buckets"] == {"1.0": 2, "10.0": 2, "100.0": 0}
        assert snap["overflow"] == 1
        assert snap["count"] == 5
        assert snap["min"] == 0.5 and snap["max"] == 1000.0

    def test_percentiles_read_bucket_bounds(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0, 8.0))
        for _ in range(90):
            hist.observe(0.5)
        for _ in range(10):
            hist.observe(3.0)
        assert hist.percentile(0.5) == pytest.approx(1.0)  # first bucket's bound
        assert hist.percentile(0.95) == pytest.approx(3.0)
        assert hist.percentile(1.0) == pytest.approx(3.0)

    def test_percentile_clamps_to_observed_max(self):
        hist = Histogram("h", buckets=tuple(DEFAULT_COUNT_BUCKETS))
        hist.observe(137)
        # 137 falls in the (64, 256] bucket; p50 must not exceed the max.
        assert hist.percentile(0.5) == 137

    def test_overflow_percentile_is_max(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(50.0)
        hist.observe(70.0)
        assert hist.percentile(0.99) == 70.0

    def test_empty_and_invalid(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        assert hist.percentile(0.5) == 0.0
        assert hist.mean == 0.0
        with pytest.raises(ValueError):
            hist.percentile(1.5)
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=())


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.gauge("g") is reg.gauge("g")

    def test_count_shaped_instruments_get_count_buckets(self):
        reg = MetricsRegistry()
        assert reg.histogram("hnsw.hops").buckets == DEFAULT_COUNT_BUCKETS
        assert reg.histogram("serve.latency_seconds").buckets != DEFAULT_COUNT_BUCKETS

    def test_thread_safety_under_concurrent_writers(self):
        reg = MetricsRegistry()
        writers, iterations = 8, 2_000

        def write():
            for i in range(iterations):
                reg.inc("shared.counter")
                reg.observe("shared.hist", float(i % 7))
                reg.set_gauge("shared.gauge", float(i))

        threads = [threading.Thread(target=write) for _ in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert reg.counter("shared.counter").value == writers * iterations
        assert reg.histogram("shared.hist").count == writers * iterations

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestExporters:
    def _populated(self):
        reg = MetricsRegistry()
        reg.inc("wal.records", 3)
        reg.set_gauge("delta.size", 12.5)
        for value in (0.001, 0.002, 0.5):
            reg.observe("serve.latency_seconds", value)
        return reg

    def test_json_round_trip(self):
        snap = self._populated().snapshot()
        again = from_json(to_json(snap))
        assert again == json.loads(json.dumps(snap))
        assert again["counters"]["wal.records"] == 3
        assert again["histograms"]["serve.latency_seconds"]["count"] == 3

    def test_prometheus_text_format(self):
        text = to_prometheus(self._populated().snapshot())
        assert "repro_wal_records 3" in text
        assert "repro_delta_size 12.5" in text
        assert '# TYPE repro_serve_latency_seconds histogram' in text
        assert 'repro_serve_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_serve_latency_seconds_count 3" in text
        # Bucket counts are cumulative and non-decreasing.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_serve_latency_seconds_bucket")
        ]
        assert counts == sorted(counts)

    def test_format_snapshot_table(self):
        text = format_snapshot(self._populated().snapshot())
        assert "wal.records" in text and "serve.latency_seconds" in text
        assert format_snapshot(MetricsRegistry().snapshot()) == "(no instruments recorded)"


class TestCatalog:
    def test_every_instrument_is_emitted(self):
        """The forward twin of lint rule R012 (every emitted name is
        catalogued): every catalogued name appears in ``src/repro`` outside
        the catalog, as a string literal or as a literal prefix ending in
        ``_`` (how ``"serve.batch_close_" + reason`` builds its names)."""
        root = Path(repro.__file__).parent
        catalog = root / "telemetry" / "instruments.py"
        literals = set()
        for path in root.rglob("*.py"):
            if path == catalog:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    literals.add(node.value)
        prefixes = tuple(lit for lit in literals if "." in lit and lit.endswith("_"))
        unused = [
            name
            for name in INSTRUMENTS
            if name not in literals and not name.startswith(prefixes)
        ]
        assert unused == []
