"""repro.telemetry — zero-dependency tracing, metrics, and profiling.

Three pillars (ISSUE 3 / DESIGN.md §8):

- tracing: nested context-manager :class:`Span` trees per query
- metrics: a process-global :class:`MetricsRegistry` of counters, gauges,
  and fixed-bucket latency histograms with canonical instrument names
- export: a slow-query log, and JSON / Prometheus exporters behind the
  ``repro-stats`` CLI

The active instance defaults to :class:`NullTelemetry`; instrumented hot
paths are behaviorally identical until ``enable_telemetry()`` (or scoped
``use_telemetry``) installs a live :class:`Telemetry`.
"""

from .export import format_snapshot, from_json, to_json, to_prometheus
from .instruments import INSTRUMENTS, bucket_preset
from .metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .runtime import (
    NullTelemetry,
    Telemetry,
    disable_telemetry,
    enable_telemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from .tracing import NULL_SPAN, NullSpan, Span, format_span_tree

__all__ = [
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "INSTRUMENTS",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "NullTelemetry",
    "Span",
    "Telemetry",
    "bucket_preset",
    "disable_telemetry",
    "enable_telemetry",
    "format_snapshot",
    "format_span_tree",
    "from_json",
    "get_telemetry",
    "set_telemetry",
    "to_json",
    "to_prometheus",
    "use_telemetry",
]
