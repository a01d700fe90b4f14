"""Spans and trace trees.

A :class:`Span` is one timed region of a query with a name, free-form
attributes, and children.  Spans nest through context managers held in a
per-thread stack (owned by :class:`~repro.telemetry.runtime.Telemetry`), so
a query produces one tree: the cluster model's ``coordinator.request``
with one ``machine.execute`` child per machine it dispatched to, a GSQL
statement's ``gsql.query`` over its parse/plan/execute phases, or a
search's ``vector.search*`` span.  Span events mark single points inside
a region.

The disabled path uses :data:`NULL_SPAN`, a shared inert span whose every
method is a no-op, so instrumented code never branches on "is telemetry
on?" just to open a span.
"""

from __future__ import annotations

import time
from typing import Any, Iterator

__all__ = ["NULL_SPAN", "NullSpan", "Span", "format_span_tree"]


class Span:
    """One timed region: name, attributes, start/end, children."""

    __slots__ = ("name", "attrs", "start_seconds", "end_seconds", "children")

    def __init__(self, name: str, attrs: dict[str, Any] | None = None):
        self.name = name
        self.attrs: dict[str, Any] = attrs or {}
        self.start_seconds = time.perf_counter()
        self.end_seconds: float | None = None
        self.children: list["Span"] = []

    # ------------------------------------------------------------- mutation
    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes on an open (or closed) span."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> "Span":
        """Record a zero-duration child marker (retry, rejection, ...)."""
        child = Span(name, attrs)
        child.end_seconds = child.start_seconds
        self.children.append(child)
        return child

    def finish(self) -> None:
        if self.end_seconds is None:
            self.end_seconds = time.perf_counter()

    # ------------------------------------------------------------- readback
    @property
    def duration_seconds(self) -> float:
        end = self.end_seconds if self.end_seconds is not None else time.perf_counter()
        return end - self.start_seconds

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name_prefix: str) -> list["Span"]:
        """Every span in the tree whose name starts with ``name_prefix``."""
        return [s for s in self.walk() if s.name.startswith(name_prefix)]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "duration_seconds": self.duration_seconds,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_seconds * 1e3:.3f}ms, {self.attrs})"


class NullSpan:
    """Inert span: every operation is a no-op; shared singleton."""

    __slots__ = ()

    name = ""
    attrs: dict[str, Any] = {}
    children: list = []
    duration_seconds = 0.0

    def set(self, **attrs: Any) -> "NullSpan":
        return self

    def event(self, name: str, **attrs: Any) -> "NullSpan":
        return self

    def finish(self) -> None:
        return None

    def walk(self):
        return iter(())

    def find(self, name_prefix: str) -> list:
        return []

    def to_dict(self) -> dict:
        return {}


NULL_SPAN = NullSpan()


def format_span_tree(span: Span, indent: int = 0) -> str:
    """Human-readable trace tree (the sample in README's Observability)."""
    pad = "  " * indent
    attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
    line = f"{pad}{span.name}  [{span.duration_seconds * 1e3:.3f} ms]"
    if attrs:
        line += f"  {attrs}"
    lines = [line]
    for child in span.children:
        lines.append(format_span_tree(child, indent + 1))
    return "\n".join(lines)
