"""The telemetry runtime: active-instance plumbing and the span stack.

One :class:`Telemetry` owns a :class:`~repro.telemetry.metrics.MetricsRegistry`
plus per-thread span stacks, a bounded buffer of recently finished traces,
and a slow-query log.  Instrumented code always goes through the active
instance (``get_telemetry()``), which defaults to :class:`NullTelemetry` —
a fully inert twin — so the hot paths stay behaviorally and numerically
identical until someone opts in via ``enable_telemetry()`` or the scoped
``use_telemetry(t)`` context manager.

Locking discipline: the runtime's ``_lock`` only guards the trace/slow-query
deques and is never held while calling into other repro components, keeping
it a leaf lock for the runtime lock-order sanitizer.  Span stacks are
thread-local and need no lock at all.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from collections import deque

from .metrics import MetricsRegistry
from .tracing import NULL_SPAN, Span

__all__ = [
    "NullTelemetry",
    "Telemetry",
    "disable_telemetry",
    "enable_telemetry",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
]


class Telemetry:
    """Live telemetry: spans, metrics, trace retention, slow-query log."""

    enabled = True

    def __init__(
        self,
        max_traces: int = 64,
        slow_query_seconds: float | None = None,
        max_slow_queries: int = 128,
    ):
        self.registry = MetricsRegistry()
        self.slow_query_seconds = slow_query_seconds
        self._local = threading.local()
        self._lock = threading.Lock()
        self._traces: deque[Span] = deque(maxlen=max_traces)
        self._slow: deque[Span] = deque(maxlen=max_slow_queries)

    # ---------------------------------------------------------------- spans
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, record: str | None = None, **attrs):
        """Open a child span of the current thread's active span.

        When the span closes, its duration is observed into the ``record``
        histogram (if given); a finished *root* span is retained as a trace
        and, past the slow-query threshold, logged as a slow query.
        """
        stack = self._stack()
        span = Span(name, attrs)
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.finish()
            stack.pop()
            if record is not None:
                self.registry.observe(record, span.duration_seconds)
            if not stack:
                self._retain(span)

    def _retain(self, root: Span) -> None:
        slow = (
            self.slow_query_seconds is not None
            and root.duration_seconds >= self.slow_query_seconds
        )
        with self._lock:
            self._traces.append(root)
            if slow:
                self._slow.append(root)
        if slow:
            self.registry.inc("query.slow")

    # -------------------------------------------------------------- metrics
    def inc(self, name: str, n: int | float = 1) -> None:
        self.registry.inc(name, n)

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        self.registry.set_gauge(name, value)

    # ------------------------------------------------------------- readback
    def traces(self) -> list[Span]:
        with self._lock:
            return list(self._traces)

    def last_trace(self) -> Span | None:
        with self._lock:
            return self._traces[-1] if self._traces else None

    def slow_queries(self) -> list[Span]:
        with self._lock:
            return list(self._slow)

    def reset(self) -> None:
        self.registry.reset()
        with self._lock:
            self._traces.clear()
            self._slow.clear()


class NullTelemetry:
    """Inert twin of :class:`Telemetry`; the default active instance.

    ``span`` hands back the shared :data:`NULL_SPAN` without allocating,
    and every metric call is a straight return, so instrumentation costs a
    dict-free method call and nothing else when telemetry is off.
    """

    enabled = False

    def __init__(self):
        self.registry = MetricsRegistry()
        self.slow_query_seconds = None

    @contextmanager
    def span(self, name: str, record: str | None = None, **attrs):
        yield NULL_SPAN

    def inc(self, name: str, n: int | float = 1) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def traces(self) -> list:
        return []

    def last_trace(self):
        return None

    def slow_queries(self) -> list:
        return []

    def reset(self) -> None:
        return None


_NULL = NullTelemetry()
_active: Telemetry | NullTelemetry = _NULL


def get_telemetry() -> Telemetry | NullTelemetry:
    """The active telemetry instance (NullTelemetry unless enabled)."""
    return _active


def set_telemetry(telemetry: Telemetry | NullTelemetry) -> Telemetry | NullTelemetry:
    """Install ``telemetry`` as the active instance; returns the previous one."""
    global _active
    previous = _active
    _active = telemetry
    return previous


def enable_telemetry(
    slow_query_seconds: float | None = None, max_traces: int = 64
) -> Telemetry:
    """Install and return a fresh live :class:`Telemetry`."""
    telemetry = Telemetry(
        max_traces=max_traces, slow_query_seconds=slow_query_seconds
    )
    set_telemetry(telemetry)
    return telemetry


def disable_telemetry() -> None:
    """Restore the inert default."""
    set_telemetry(_NULL)


@contextmanager
def use_telemetry(telemetry: Telemetry | NullTelemetry):
    """Scoped activation: installs ``telemetry``, restores the previous on exit."""
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
